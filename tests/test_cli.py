"""End-to-end tests of the batch front end against the shipped fixtures."""

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hostrank.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VALIDATION,
    OUTPUT_DIR_ENV,
    RunConfig,
    main,
    run,
)
from hostrank.indicators import _brief


def read_table(path: Path):
    """Parse an output table: provenance header lines plus CSV."""
    header = {}
    body_lines = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            header[key] = value
        else:
            body_lines.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body_lines))))
    return header, rows


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    target = tmp_path / "outputs"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    return target


@pytest.fixture(scope="module")
def config_path(fixtures_dir):
    return fixtures_dir / "run.json"


class TestWeightsCommand:
    def test_all_weight_tables_sum_to_one(self, config_path, outdir):
        # Tables print 9 significant digits, so each row contributes up to
        # half an ulp of rounding; the exact 1e-9 sum invariant is enforced
        # on the unformatted values by the weighting types themselves.
        assert main(["weights", "--config", str(config_path), "--method", "combined"]) == EXIT_OK
        for name, column in (
            ("ahp_categories.csv", "weight"),
            ("entropy.csv", "weight"),
            ("total.csv", "omega"),
            ("features.csv", "gamma"),
        ):
            header, rows = read_table(outdir / name)
            total = sum(float(r[column]) for r in rows)
            print_round = 5e-10 * max(len(rows), 2)
            assert total == pytest.approx(1.0, abs=1e-9 + print_round), name
            assert header["seed"] == "20260810"
        # in-category weights sum to one per category
        _, rows = read_table(outdir / "combined.csv")
        per_cat = {}
        for r in rows:
            per_cat.setdefault(r["category"], 0.0)
            per_cat[r["category"]] += float(r["weight"])
        assert all(abs(v - 1.0) < 1e-8 for v in per_cat.values())

    def test_ahp_only_method(self, config_path, outdir):
        assert main(["weights", "--config", str(config_path), "--method", "ahp"]) == EXIT_OK
        _, rows = read_table(outdir / "ahp_consistency.csv")
        assert all(r["passed"] == "1" for r in rows)
        assert not (outdir / "total.csv").exists()

    def test_entropy_only_method(self, config_path, outdir):
        assert main(["weights", "--config", str(config_path), "--method", "entropy"]) == EXIT_OK
        _, rows = read_table(outdir / "entropy.csv")
        assert len(rows) == 30


class TestScreenCommands:
    def test_winter_ranks_calgary_first(self, config_path, fixtures_dir, outdir):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "screen", "winter",
                "--pool", str(fixtures_dir / "winter_pool.json"),
                "--config", str(config_path),
            ])
        assert code == EXIT_OK
        _, ranking = read_table(outdir / "winter_ranking.csv")
        assert ranking[0]["city"] == "Calgary"
        assert [r["city"] for r in ranking] == ["Calgary", "Pyeongchang", "Moscow"]
        totals = [float(r["total"]) for r in ranking]
        for row in ranking:
            # the printed columns carry 9 significant digits, half an ulp each
            assert float(row["total"]) == pytest.approx(
                float(row["s_base"]) + float(row["s_evaluate"]), abs=1e-8
            )
        assert totals == sorted(totals, reverse=True)
        _, climate = read_table(outdir / "winter_climate.csv")
        assert sum(r["passed"] == "1" for r in climate) == 3
        assert sum(r["ideal"] == "1" for r in climate) == 1

    def test_summer_ranks_beijing_first(self, config_path, fixtures_dir, outdir):
        code = main([
            "screen", "summer",
            "--pool", str(fixtures_dir / "world_pool.csv"),
            "--config", str(config_path),
        ])
        assert code == EXIT_OK
        _, screen = read_table(outdir / "summer_screen.csv")
        assert len(screen) == 8
        _, ranking = read_table(outdir / "summer_ranking.csv")
        assert ranking[0]["city"] == "Beijing"
        swot = (outdir / "swot_report.txt").read_text()
        assert swot.count("== ") == 4


def matrix_json_form(text: str) -> dict:
    """The CSV decision matrix ``text`` in the loader's JSON form."""
    header, *rows = csv.reader(io.StringIO(text))
    return {
        "rows": [r[0] for r in rows],
        "columns": header[1:],
        "values": [[float(c) for c in r[1:]] for r in rows],
    }


# The JSON integer 10**400, written out in full: past the float range.
_PAST_FLOATS = 10**400


def write_config(tmp_path: Path, fixtures_dir: Path, edit) -> Path:
    """The shipped run config with absolute input paths, changed by ``edit(cfg)``."""
    cfg = json.loads((fixtures_dir / "run.json").read_text())
    for key in ("hierarchy", "judgments", "decision_matrix", "pool", "plans", "swot"):
        cfg[key] = str(fixtures_dir / cfg[key])
    edit(cfg)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def screen_winter(config: Path, fixtures_dir: Path) -> int:
    return main([
        "screen", "winter", "--pool", str(fixtures_dir / "winter_pool.json"),
        "--config", str(config),
    ])


def winter_city_names(fixtures_dir: Path) -> list[str]:
    pool = json.loads((fixtures_dir / "winter_pool.json").read_text())
    return [c["name"] for c in pool["cities"]]


class TestScreenPaths:
    def test_exclusion_name_absent_from_pool_warns(self, tmp_path, fixtures_dir, outdir):
        def edit(cfg):
            cfg["screen"]["winter"]["exclude"] = ["Bangkok", "Atlantis"]

        config = write_config(tmp_path, fixtures_dir, edit)
        with pytest.warns(UserWarning) as caught:
            assert screen_winter(config, fixtures_dir) == EXIT_OK
        messages = [str(w.message) for w in caught]
        assert "absent from the pool: ['Atlantis']" in messages[0]
        assert messages[1:] == [
            f"series '{city}/feb_temp_c' fails the class-ratio test "
            "(ratios outside (0.7515, 1.3307)); fit may extrapolate poorly"
            for city in ("Warsaw", "Stockholm")
        ]
        _, climate = read_table(outdir / "winter_climate.csv")
        assert "Bangkok" not in {r["city"] for r in climate}
        assert len(climate) == len(winter_city_names(fixtures_dir)) - 1

    def test_a_long_absent_exclusion_name_is_shown_cut(self, tmp_path, fixtures_dir, outdir):
        long_name = "Z" * 50_000

        def edit(cfg):
            cfg["screen"]["winter"]["exclude"] = ["Bangkok", long_name, "Atlantis"]

        config = write_config(tmp_path, fixtures_dir, edit)
        with pytest.warns(UserWarning) as caught:
            assert screen_winter(config, fixtures_dir) == EXIT_OK
        assert str(caught[0].message) == (
            "exclusion list names absent from the pool: "
            f"['Atlantis', {_brief(long_name)}]"
        )
        assert len(str(caught[0].message)) < 200

    def test_many_absent_exclusion_names_are_shown_as_a_count(
        self, tmp_path, fixtures_dir, outdir
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["exclude"] = [f"Nowhere {i}" for i in range(2_000)]

        config = write_config(tmp_path, fixtures_dir, edit)
        with pytest.warns(UserWarning) as caught:
            assert screen_winter(config, fixtures_dir) == EXIT_OK
        assert str(caught[0].message) == (
            "exclusion list names absent from the pool: "
            "['Nowhere 0', 'Nowhere 1', 'Nowhere 10', ... (2000 names)]"
        )

    def test_exclusion_list_is_checked_against_the_pool_not_the_stage_1_survivors(
        self, tmp_path, fixtures_dir, outdir
    ):
        def edit(cfg):
            cfg["screen"]["stage1"] = {"gdp_rank": 6, "sports_rank": 12}

        config = write_config(tmp_path, fixtures_dir, edit)
        with pytest.warns(UserWarning) as caught:
            assert screen_winter(config, fixtures_dir) == EXIT_OK
        # Bangkok and Riyadh are excluded, and in the pool, but not in its GDP top 6.
        assert [str(w.message) for w in caught] == [
            "series 'Warsaw/feb_temp_c' fails the class-ratio test "
            "(ratios outside (0.7515, 1.3307)); fit may extrapolate poorly"
        ]
        _, climate = read_table(outdir / "winter_climate.csv")
        assert sorted(r["city"] for r in climate) == [
            "Calgary", "Copenhagen", "Moscow", "Pyeongchang", "Warsaw"
        ]

    @pytest.mark.parametrize(
        "season, pool", [("winter", "winter_pool.json"), ("summer", "world_pool.csv")]
    )
    def test_stage_1_that_keeps_no_city_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, season, pool
    ):
        def edit(cfg):
            cfg["screen"]["stage1"] = {"gdp_rank": 1, "sports_rank": 1}

        config = write_config(tmp_path, fixtures_dir, edit)
        code = main(["screen", season, "--pool", str(fixtures_dir / pool), "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: stage 1 keeps no city: none is in the top 1 by gdp "
            "and the top 1 by sports_score\n"
        )
        assert not outdir.exists()

    def test_every_city_excluded_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["exclude"] = winter_city_names(fixtures_dir)

        config = write_config(tmp_path, fixtures_dir, edit)
        assert screen_winter(config, fixtures_dir) == EXIT_VALIDATION
        assert "every pool city is excluded" in capsys.readouterr().err
        assert not outdir.exists()

    def test_every_stage_1_survivor_excluded_names_stage_1(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        def edit(cfg):
            cfg["screen"]["stage1"] = {"gdp_rank": 1, "sports_rank": 12}  # keeps Moscow only
            cfg["screen"]["winter"]["exclude"] = ["Moscow"]

        config = write_config(tmp_path, fixtures_dir, edit)
        assert screen_winter(config, fixtures_dir) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: every stage-1 survivor is excluded\n"
        )
        assert not outdir.exists()

    def test_no_city_passing_the_gate_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["requirement"]["min_feb_snow"] = 1e6

        config = write_config(tmp_path, fixtures_dir, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert screen_winter(config, fixtures_dir) == EXIT_VALIDATION
        assert "no city passes the winter climate gate" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "season, pool, expected",
        [
            ("winter", "winter_pool.json", EXIT_CONFIG),  # no default base score
            ("summer", "world_pool.csv", EXIT_OK),  # defaults to 0.5
        ],
    )
    def test_city_without_a_base_score(
        self, tmp_path, fixtures_dir, outdir, capsys, season, pool, expected
    ):
        def edit(cfg):
            cfg["screen"][season]["s_base"] = {}
            del cfg["screen"][season]["default_s_base"]

        config = write_config(tmp_path, fixtures_dir, edit)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main([
                "screen", season, "--pool", str(fixtures_dir / pool), "--config", str(config),
            ])
        assert code == expected
        if expected == EXIT_CONFIG:
            assert "no base score configured for city" in capsys.readouterr().err
            assert not outdir.exists()
        else:
            _, ranking = read_table(outdir / f"{season}_ranking.csv")
            assert {r["s_base"] for r in ranking} == {"0.5"}


class TestOtherCommands:
    def test_evaluate_emits_ranked_scores(self, config_path, outdir):
        assert main(["evaluate", "--config", str(config_path), "--features", "10"]) == EXIT_OK
        _, rows = read_table(outdir / "evaluation.csv")
        assert len(rows) == 45
        scores = [float(r["chi"]) for r in rows]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)

    def test_forecast_flags_the_forecast_tail(self, config_path, fixtures_dir, outdir):
        code = main([
            "forecast", "--config", str(config_path),
            "--pool", str(fixtures_dir / "winter_pool.json"),
            "--indicator", "feb_snow_cm", "--until", "2030", "--city", "Calgary",
        ])
        assert code == EXIT_OK
        _, rows = read_table(outdir / "forecast.csv")
        assert len(rows) == 16  # 6 observed + 10 forecast
        flags = [r["forecast"] for r in rows]
        assert flags[:6] == ["0"] * 6 and flags[6:] == ["1"] * 10
        assert [r["period"] for r in rows][:3] == ["2015", "2016", "2017"]

    @pytest.mark.parametrize(
        "weighting, argv, count",
        [
            ({"feature_count": 5}, [], 5),
            ({"feature_count": 5}, ["--features", "7"], 7),
            ({"coverage_target": 0.5}, ["--features", "7"], 11),
        ],
    )
    def test_evaluate_names_the_feature_count_it_used(
        self, tmp_path, fixtures_dir, outdir, weighting, argv, count
    ):
        """--features falls back to the config; a coverage target overrides both."""
        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg["weighting"].update(weighting))
        assert main(["evaluate", "--config", str(config), *argv]) == EXIT_OK
        header, rows = read_table(outdir / "features.csv")
        assert len(rows) == count
        assert header["invocation"] == f"evaluate --features {count}"

    def test_free_form_plan_id_ranks(self, tmp_path, fixtures_dir, outdir, capsys):
        plans = json.loads((fixtures_dir / "plans.json").read_text())
        bid = plans["plans"][2]  # "B" has the fixture's second-best aggregate
        bid["id"] = "Spring/Autumn bid"
        bid["impacts"] = {k: 9 for k in bid["impacts"]}
        plans_path = tmp_path / "plans.json"
        plans_path.write_text(json.dumps(plans))

        config = str(fixtures_dir / "run.json")
        assert main(["compare-schemes", "--config", config, "--plans", str(plans_path)]) == EXIT_OK
        _, rows = read_table(outdir / "schemes.csv")
        assert [r["plan"] for r in rows] == ["Spring/Autumn bid", "D", "C", "A", "Original"]
        assert float(rows[0]["aggregate"]) == pytest.approx(9.0, abs=1e-9)
        assert "best plan: Spring/Autumn bid (aggregate 9)" in capsys.readouterr().out

    def test_compare_schemes_orders_plans(self, config_path, outdir):
        assert main(["compare-schemes", "--config", str(config_path)]) == EXIT_OK
        _, rows = read_table(outdir / "schemes.csv")
        assert rows[0]["plan"] == "D"
        assert rows[-1]["plan"] == "Original"
        assert float(rows[-1]["aggregate"]) == pytest.approx(1.0, abs=1e-9)
        # descriptions containing the delimiter survive the round trip
        assert rows[0]["description"].endswith("bidding for the rest")

    def test_sensitivity_and_rsm_run(self, config_path, outdir):
        assert main([
            "sensitivity", "--config", str(config_path), "--trials", "3",
        ]) == EXIT_OK
        assert (outdir / "sensitivity.csv").exists()
        assert main([
            "rsm", "--config", str(config_path), "--factors", "1,10", "--grid", "7",
        ]) == EXIT_OK
        _, rows = read_table(outdir / "rsm_grid.csv")
        assert len(rows) == 49
        _, surface = read_table(outdir / "rsm_surface.csv")
        terms = {r["term"]: float(r["value"]) for r in surface}
        # Renormalized weights make the response curved: a quadratic fits it
        # closely but not exactly.
        assert 0.999 < terms["r_squared"] < 1.0
        assert abs(terms["square[A2]"]) > 1e-3

    @pytest.mark.parametrize("factors, grid", [("1,10", 7), ("xi3,A2,2", 5)])
    def test_rsm_grid_center_scores_the_baseline_evaluation(self, config_path, factors, grid):
        """At an odd grid's center every weight is nominal, so the response is
        the baseline alternative's evaluation score."""
        from hostrank.cli import RunConfig, _cmd_evaluate, _cmd_rsm

        cfg = RunConfig.load(config_path)
        _, tables, _ = _cmd_rsm(cfg, argparse.Namespace(factors=factors, grid=grid))
        _, grid_rows = tables["rsm_grid.csv"]
        _, tables, _ = _cmd_evaluate(cfg, argparse.Namespace(features=None))
        chi = {name: value for _, name, value in tables["evaluation.csv"][1]}
        assert cfg.rsm_baseline == "Beijing"
        assert grid_rows[len(grid_rows) // 2][-1] == pytest.approx(chi["Beijing"], abs=1e-12)

    def test_identity_trials_print_zero_deviations(self, config_path, outdir):
        assert main([
            "sensitivity", "--config", str(config_path), "--n-swap", "0", "--trials", "3",
        ]) == EXIT_OK
        _, rows = read_table(outdir / "sensitivity.csv")
        trials = [r for r in rows if r["section"] == "trial"]
        assert len(trials) == 3 * 45
        assert {(r["abs_dev"], r["rel_dev"]) for r in trials} == {("0", "0")}

    def test_sensitivity_quotes_a_label_holding_a_comma_and_a_quote(
        self, tmp_path, fixtures_dir, outdir
    ):
        label = 'New York, "NY"'
        matrix = (fixtures_dir / "decision_matrix.csv").read_text()
        assert matrix.count("\nNew York,") == 1
        renamed = tmp_path / "decision_matrix.csv"
        renamed.write_text(matrix.replace("\nNew York,", '\n"New York, ""NY""",'))
        config = write_config(
            tmp_path, fixtures_dir, lambda cfg: cfg.update(decision_matrix=str(renamed))
        )

        assert main(["sensitivity", "--config", str(config), "--trials", "3"]) == EXIT_OK
        text = (outdir / "sensitivity.csv").read_text()
        body = [line for line in text.splitlines(keepends=True) if not line.startswith("# ")]
        rows = list(csv.reader(body))
        assert {len(row) for row in rows} == {8}
        # once as the baseline, in each of 3 trials and in 3 summary rows
        assert sum(row[2] == label for row in rows) == 7
        assert f'"{label.replace(chr(34), chr(34) * 2)}"' in text

    def test_rsm_accepts_feature_ids_and_xi_positions(self, config_path, outdir):
        assert main([
            "rsm", "--config", str(config_path), "--factors", "xi1,xi2", "--grid", "5",
        ]) == EXIT_OK


BAD_PRIMARY_MATRICES = {
    "primary a string": "x",
    "primary ragged": [[1, 2], [0.5]],
    "primary string cells": [[1, "a"], ["b", 1]],
}


# Entries JSON gives as true or as a numeric string, in otherwise valid matrices.
BAD_JUDGMENT_CELLS = {
    "primary true diagonal": ("primary", 0, 0, True),
    "primary numeric string": ("primary", 0, 1, "2"),
    "A true diagonal": ("A", 2, 2, True),
}


def _wrong_shape_cases():
    """JSON inputs whose root is no object, or whose indicator id is no string,
    inputs whose rejected value, CSV header, cell or row label is too long to
    quote whole, and a JSON decision matrix with more value rows than rows."""
    inputs = [
        ("hierarchy", ["weights"], "hierarchy file"),
        ("judgments", ["weights"], "judgments file"),
        ("decision_matrix", ["evaluate"], "decision matrix file"),
        ("pool", ["screen", "summer"], "pool file"),
        ("plans", ["compare-schemes"], "plans file"),
        ("swot", ["screen", "summer"], "swot file"),
    ]
    roots = [
        ("list", "[1, 2]", "a list"),
        ("long list", json.dumps(list(range(10_000))), "a list"),
        ("number", "5", "a number"),
    ]
    for key, argv, what in inputs:
        for name, text, kind in roots:
            message = f"bad value in {what}: the document must be a JSON object, got {kind}"
            if name == "number" and key == "decision_matrix":  # read as CSV
                message = "decision matrix file needs a header row and at least one sample"
            elif name == "number" and key == "pool":
                message = (
                    "pool file must have columns ['country', 'gdp', 'name', 'sports_score'], "
                    "got ['5']"
                )
            yield pytest.param(key, argv, what, text, message, id=f"{key}-{name}")
    for key, argv, text in [
        ("decision_matrix", ["evaluate"], '{"rows": ["a"], "columns": [5], "values": [[1]]}'),
        ("hierarchy", ["weights"], '{"reduced": true, "indicators": [{"id": 5}]}'),
    ]:
        yield pytest.param(
            key, argv, "indicator", text, "unknown indicator 5", id=f"{key}-numeric-id"
        )
    # A quoted value longer than 60 characters is cut, with its length after it.
    yield pytest.param(
        "hierarchy", ["weights"], "hierarchy file",
        json.dumps({"reduced": True, "indicators": "x" * 100_000}),
        f"bad value in hierarchy file: indicators must be a list, got '{'x' * 59}... "
        "(100002 characters)",
        id="hierarchy-long-string",
    )
    yield pytest.param(
        "decision_matrix", ["evaluate"], "indicator",
        json.dumps({"rows": ["a"], "columns": [list(range(10_000))], "values": [[1]]}),
        "unknown indicator [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 1... "
        "(58890 characters)",
        id="decision_matrix-long-id",
    )
    yield pytest.param(
        "pool", ["screen", "summer"], "pool file", ",".join(map(str, range(10_000))) + "\n",
        "pool file must have columns ['country', 'gdp', 'name', 'sports_score'], got "
        "['0', '1', '2', '3', '4', '5', '6', '7', '8', '9', '10', '11... (78890 characters)",
        id="pool-long-header",
    )
    # A long CSV cell or row label is cut the same way.
    pool_header = "name,country,gdp,sports_score\n"
    yield pytest.param(
        "pool", ["screen", "summer"], "column gdp",
        pool_header + "Oslo,Norway," + "9" * 49_999 + "x,1.0\n",
        f"non-numeric cell '{'9' * 59}... (50002 characters) at row 'Oslo', column gdp",
        id="pool-long-number",
    )
    yield pytest.param(
        "pool", ["screen", "summer"], "column count mismatch",
        pool_header + "n" * 50_000 + ",Norway,1.0\n",
        f"column count mismatch at row '{'n' * 59}... (50002 characters): expected 4, got 3",
        id="pool-short-row-long-name",
    )
    yield pytest.param(
        "decision_matrix", ["evaluate"], "column A1", "city,A1\nOslo," + "y" * 50_000 + "\n",
        f"non-numeric cell '{'y' * 59}... (50002 characters) at row 'Oslo', column A1",
        id="decision_matrix-long-cell",
    )
    # A JSON matrix needs one value row per row label.
    yield pytest.param(
        "decision_matrix", ["evaluate"], "decision matrix file",
        json.dumps({"rows": ["a", "b"], "columns": ["A1", "A2"],
                    "values": [[1, 2], [3, 4], [5, 6], ["x", None]]}),
        "decision matrix file has a different number of rows (2) and value rows (4)",
        id="decision_matrix-extra-value-rows",
    )


_WRONG_SHAPE_CASES = list(_wrong_shape_cases())


class TestErrorContract:
    def test_missing_config_is_a_config_error(self, outdir, capsys):
        assert main(["weights", "--config", "/nonexistent/run.json"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_hierarchy_is_a_validation_error_with_no_outputs(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        cfg = json.loads((fixtures_dir / "run.json").read_text())
        bad_hierarchy = json.loads((fixtures_dir / "hierarchy.json").read_text())
        bad_hierarchy["indicators"].append(bad_hierarchy["indicators"][0])  # A1 twice
        (tmp_path / "hierarchy.json").write_text(json.dumps(bad_hierarchy))
        for key in ("judgments", "decision_matrix", "pool", "plans", "swot"):
            cfg[key] = str(fixtures_dir / cfg[key])
        cfg["hierarchy"] = str(tmp_path / "hierarchy.json")
        bad_cfg = tmp_path / "run.json"
        bad_cfg.write_text(json.dumps(cfg))

        assert main(["weights", "--config", str(bad_cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: hierarchy invalid: specs/duplicate: indicator A1 appears twice\n"
        )
        assert not outdir.exists()  # nothing was written

    def test_bad_judgment_entry_prints_a_plain_number(self, tmp_path, fixtures_dir, outdir, capsys):
        judgments = json.loads((fixtures_dir / "judgments.json").read_text())
        judgments["primary"][0][1] = -1
        path = tmp_path / "judgments.json"
        path.write_text(json.dumps(judgments))
        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg.update(judgments=str(path)))
        assert main(["weights", "--method", "ahp", "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "validation error: nonpositive entry -1.0 at (1,2)\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("method", ["ahp", "entropy"])
    def test_each_weights_method_checks_the_hierarchy(
        self, tmp_path, fixtures_dir, outdir, capsys, method
    ):
        def edit(cfg):
            obj = json.loads(Path(cfg["hierarchy"]).read_text())
            obj["indicators"].append(obj["indicators"][0])
            cfg["hierarchy"] = str(tmp_path / "hierarchy.json")
            (tmp_path / "hierarchy.json").write_text(json.dumps(obj))

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main(["weights", "--method", method, "--config", str(config)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            "validation error: hierarchy invalid: specs/duplicate: indicator A1 appears twice\n"
        )
        assert not outdir.exists()

    def test_unknown_rsm_factor_is_a_config_error(self, config_path, outdir):
        assert main([
            "rsm", "--config", str(config_path), "--factors", "A5,B1", "--grid", "5",
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("season", ["winter", "summer"])
    @pytest.mark.parametrize(
        "name, text",
        [("pool.csv", "name,country,gdp,sports_score\n"), ("pool.json", '{"cities": []}')],
    )
    def test_empty_pool_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, season, name, text
    ):
        pool = tmp_path / name
        pool.write_text(text)
        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg["screen"].pop("stage1"))
        code = main(["screen", season, "--pool", str(pool), "--config", str(config)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: candidate pool is empty\n"
        assert not outdir.exists()

    def test_empty_plans_file_is_a_validation_error(self, tmp_path, config_path, outdir, capsys):
        plans = tmp_path / "plans.json"
        plans.write_text('{"plans": []}')
        code = main(["compare-schemes", "--config", str(config_path), "--plans", str(plans)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "validation error: plans file lists no plans\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv, config_until, message",
        [
            (["screen", "winter"], 2010,
             "config key 'screen.winter.until' = 2010 precedes the last observation "
             "of 'Warsaw/feb_temp_c' (2020)"),
            (["forecast", "--indicator", "feb_snow_cm", "--until", "2010"], 2050,
             "--until = 2010 precedes the last observation of 'Calgary/feb_snow_cm' (2020)"),
        ],
    )
    def test_until_before_a_series_ends_names_the_series_and_the_setting(
        self, tmp_path, fixtures_dir, outdir, capsys, argv, config_until, message
    ):
        config = write_config(
            tmp_path, fixtures_dir, lambda cfg: cfg["screen"]["winter"].update(until=config_until)
        )
        pool = fixtures_dir / "winter_pool.json"
        code = main([*argv, "--pool", str(pool), "--config", str(config)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not outdir.exists()

    def test_bad_pool_path_is_a_config_error(self, config_path, outdir):
        assert main([
            "screen", "winter", "--pool", "/nope.json", "--config", str(config_path),
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("missing_values", "lacks the key 'values'"),
            ("truncated", "not valid JSON"),
            ("text_gdp", "bad value in pool city #3: gdp must be a number, got 'lots'"),
            ("null_country", "bad value in pool city #1: country must be a string, got None"),
        ],
    )
    def test_malformed_pool_is_a_validation_error(
        self, tmp_path, fixtures_dir, config_path, outdir, capsys, damage, message
    ):
        text = (fixtures_dir / "winter_pool.json").read_text()
        pool = json.loads(text)
        if damage == "missing_values":
            del pool["cities"][1]["climate"]["feb_snow_cm"]["values"]
            text = json.dumps(pool)
        elif damage == "truncated":
            text = text[: len(text) // 2]
        elif damage == "null_country":
            pool["cities"][0]["country"] = None
            text = json.dumps(pool)
        else:
            pool["cities"][2]["gdp"] = "lots"
            text = json.dumps(pool)
        bad_pool = tmp_path / "pool.json"
        bad_pool.write_text(text)

        code = main(["screen", "winter", "--pool", str(bad_pool), "--config", str(config_path)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, damage, argv, message",
        [
            ("hierarchy", "truncate", ["weights"], "hierarchy file is not valid JSON"),
            ("hierarchy", "drop indicators", ["weights"], "lacks the key 'indicators'"),
            ("hierarchy", "string interval", ["weights"],
             "bad value in hierarchy file: ideal_interval bound of B5 must be a number, got '10'"),
            ("hierarchy", "one-bound interval", ["weights"],
             "bad value in hierarchy file: ideal_interval of B5 must be [a, b], got [10.0]"),
            ("hierarchy", "string reduced", ["weights"],
             "bad value in hierarchy file: reduced must be true or false, got 'false'"),
            ("judgments", "truncate", ["weights"], "judgments file is not valid JSON"),
            ("plans", "truncate", ["compare-schemes"], "plans file is not valid JSON"),
            ("plans", "impact x", ["compare-schemes"], "bad value in plans file"),
            ("plans", "duplicate id", ["compare-schemes"], "duplicate plan id 'A'"),
            ("plans", "empty id", ["compare-schemes"], "plan id must be a non-empty string"),
            ("swot", "truncate", ["screen", "summer"], "swot file is not valid JSON"),
            *[
                ("judgments", damage, ["weights", "--method", "ahp"],
                 "judgment matrix 'primary' is not a numeric square array")
                for damage in BAD_PRIMARY_MATRICES
            ],
            *[
                ("judgments", damage, argv,
                 f"judgment matrix {level!r} is not a numeric square array")
                for damage, (level, *_) in BAD_JUDGMENT_CELLS.items()
                for argv in (["weights"], ["weights", "--method", "ahp"])
            ],
        ],
    )
    def test_malformed_json_input_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, damage, argv, message
    ):
        def edit(cfg):
            text = (fixtures_dir / cfg[key]).read_text()
            if damage == "truncate":
                text = text[: len(text) // 2]
            elif damage == "drop indicators":
                obj = json.loads(text)
                del obj["indicators"]
                text = json.dumps(obj)
            elif damage in ("string interval", "one-bound interval"):
                obj = json.loads(text)
                b5 = next(e for e in obj["indicators"] if e["id"] == "B5")
                b5["ideal_interval"] = ["10", "9"] if damage == "string interval" else [10.0]
                text = json.dumps(obj)
            elif damage == "string reduced":
                obj = json.loads(text)
                obj["reduced"] = "false"
                text = json.dumps(obj)
            elif damage in BAD_JUDGMENT_CELLS:
                obj = json.loads(text)
                level, i, j, cell = BAD_JUDGMENT_CELLS[damage]
                obj[level][i][j] = cell
                text = json.dumps(obj)
            elif damage in BAD_PRIMARY_MATRICES:
                obj = json.loads(text)
                obj["primary"] = BAD_PRIMARY_MATRICES[damage]
                text = json.dumps(obj)
            elif damage == "impact x":
                obj = json.loads(text)
                obj["plans"][1]["impacts"]["A2"] = "x"
                text = json.dumps(obj)
            else:
                obj = json.loads(text)
                obj["plans"][3]["id"] = "A" if damage == "duplicate id" else ""
                text = json.dumps(obj)
            cfg[key] = str(tmp_path / f"{key}.json")
            (tmp_path / f"{key}.json").write_text(text)

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main([*argv, "--config", str(config)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("key, argv, what, text, message", _WRONG_SHAPE_CASES)
    def test_json_input_of_the_wrong_shape_fails_in_one_line(
        self, tmp_path, fixtures_dir, outdir, capsys, key, argv, what, text, message
    ):
        path = tmp_path / f"{key}.json"
        path.write_text(text)
        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg.update({key: str(path)}))
        outdir.mkdir()
        (outdir / "total_weights.csv").write_text("from an earlier run\n")
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}

        words = 2 if argv[0] == "screen" else 1
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"validation error: {message}\n"
        assert what in err and len(err) < 200 and "Traceback" not in err
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    @pytest.mark.parametrize(
        "key, fixture, argv",
        [
            ("hierarchy", "hierarchy.json", ["weights"]),
            ("judgments", "judgments.json", ["weights"]),
            ("decision_matrix", "decision_matrix.csv", ["evaluate"]),
            ("pool", "world_pool.csv", ["screen", "summer"]),
            (None, "winter_pool.json", ["screen", "winter", "--pool", "{damaged}"]),
            ("plans", "plans.json", ["compare-schemes"]),
            ("swot", "swot.json", ["screen", "summer"]),
            ("climate", "climate_sample.csv",
             ["screen", "winter", "--pool", "{fixtures}/winter_pool.json"]),
        ],
    )
    def test_non_utf8_input_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, fixture, argv
    ):
        damaged = tmp_path / fixture
        # A latin-1 "\u00e0" in place of the first "a" is not UTF-8.
        damaged.write_bytes((fixtures_dir / fixture).read_bytes().replace(b"a", b"\xe0", 1))

        def edit(cfg):
            if key is not None:
                cfg[key] = str(damaged)

        config = write_config(tmp_path, fixtures_dir, edit)
        argv = [a.format(damaged=damaged, fixtures=fixtures_dir) for a in argv]
        words = 2 if argv[0] == "screen" else 1
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("validation error:")
        assert f"{_brief(str(damaged))} is not UTF-8 text" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, fixture, column, argv, what",
        [
            ("decision_matrix", "decision_matrix.csv", 0, ["evaluate"], "decision matrix file"),
            ("pool", "world_pool.csv", 0, ["screen", "summer"], "pool file"),
            ("climate", "climate_sample.csv", -1,
             ["screen", "winter", "--pool", "{fixtures}/winter_pool.json"], "climate file"),
        ],
    )
    def test_field_past_the_csv_size_limit_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, fixture, column, argv, what
    ):
        lines = (fixtures_dir / fixture).read_text().split("\n")
        cells = lines[1].split(",")
        cells[column] += "0" * csv.field_size_limit()  # a label, a city name, a value
        lines[1] = ",".join(cells)
        damaged = tmp_path / fixture
        damaged.write_text("\n".join(lines))

        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg.update({key: str(damaged)}))
        argv = [a.format(fixtures=fixtures_dir) for a in argv]
        words = 2 if argv[0] == "screen" else 1
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        limit = csv.field_size_limit()
        assert err == (
            f"validation error: {what} is not valid CSV: field larger than field limit ({limit})\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, fixture, row, got, argv",
        [
            ("pool", "world_pool.csv", "Oslo,Norway,1.0", 3, ["screen", "summer"]),
            ("pool", "world_pool.csv", "Oslo", 1, ["screen", "summer"]),
            ("climate", "climate_sample.csv", "Calgary,feb_temp_c", 2,
             ["screen", "winter", "--pool", "{fixtures}/winter_pool.json"]),
            ("pool", "world_pool.csv", "Oslo,Norway,1.0,2.0,extra", 5, ["screen", "summer"]),
            ("climate", "climate_sample.csv", "Calgary,feb_temp_c,2030,-9.5,x,y", 6,
             ["screen", "winter", "--pool", "{fixtures}/winter_pool.json"]),
        ],
    )
    def test_row_shorter_or_longer_than_its_header_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, fixture, row, got, argv
    ):
        lines = (fixtures_dir / fixture).read_text().split("\n")
        lines.insert(2, row)
        damaged = tmp_path / fixture
        damaged.write_text("\n".join(lines))

        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg.update({key: str(damaged)}))
        argv = [a.format(fixtures=fixtures_dir) for a in argv]
        words = 2 if argv[0] == "screen" else 1
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_VALIDATION
        label = row.split(",")[0]
        assert capsys.readouterr().err == (
            f"validation error: column count mismatch at row {label!r}: expected 4, got {got}\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, fixture, damage, argv, message",
        [
            ("pool", "winter_pool.json",
             lambda obj: obj["cities"][0]["indicators"].update(A2=float("nan")),
             ["screen", "winter"], "pool city 'Calgary' has a non-finite A2: nan"),
            ("pool", "winter_pool.json", lambda obj: obj["cities"][1].update(gdp=float("inf")),
             ["screen", "winter"], "pool city 'Moscow' has a non-finite gdp: inf"),
            ("pool", "world_pool.csv", ("3.733,816.6", "3.733,inf"), ["screen", "summer"],
             "pool city 'New York' has a non-finite sports_score: inf"),
            ("pool", "world_pool.csv", ("3.733,816.6", "nan,816.6"), ["screen", "summer"],
             "pool city 'New York' has a non-finite gdp: nan"),
            *[
                ("plans", "plans.json",
                 lambda obj, grade=grade: obj["plans"][1]["impacts"].update(A2=grade),
                 ["compare-schemes"],
                 "bad value in plans file: grade of A2 in plan 'A' must be one of 1, 3, 5, 7, 9, "
                 f"got {grade!r}")
                for grade in (3.9, True, "3")
            ],
            ("swot", "swot.json", lambda obj: obj["records"][0].update(strengths="good transport"),
             ["screen", "summer"], "bad value in swot file: strengths of 'Beijing' must be a list "
             "of strings, got 'good transport'"),
            ("pool", "winter_pool.json", lambda obj: obj["cities"][1].update(gdp=True),
             ["screen", "winter"], "bad value in pool city #2: gdp must be a number, got True"),
            ("pool", "winter_pool.json", lambda obj: obj["cities"][1].update(sports_score="12"),
             ["screen", "winter"],
             "bad value in pool city #2: sports_score must be a number, got '12'"),
            *[
                ("pool", "winter_pool.json",
                 lambda obj, value=value: obj["cities"][0]["indicators"].update(A2=value),
                 ["screen", "winter"],
                 f"bad value in pool city #1: A2 must be a number, got {value!r}")
                for value in (True, "12")
            ],
            ("pool", "winter_pool.json",
             lambda obj: obj["cities"][0]["climate"]["feb_temp_c"].update(start_period=2015.7),
             ["screen", "winter"], "bad value in pool city #1: start_period of "
             "'Calgary/feb_temp_c' must be an integer, got 2015.7"),
            *[
                ("pool", "winter_pool.json",
                 lambda obj, value=value: obj["cities"][0]["climate"]["feb_snow_cm"][
                     "values"].__setitem__(2, value),
                 ["screen", "winter"], "bad value in pool city #1: value of "
                 f"'Calgary/feb_snow_cm' must be a number, got {value!r}")
                for value in ("1.5", True)
            ],
            ("decision_matrix", "decision_matrix.csv",
             lambda obj: obj["values"][0].__setitem__(0, True), ["evaluate"],
             "bad value in decision matrix file: cell at row 'New York' must be a number, "
             "got True"),
            ("pool", "winter_pool.json",
             lambda obj: obj["cities"][1]["indicators"].update({" A1": 2.0}),
             ["screen", "winter"], "bad value in pool city #2: indicators name A1 twice"),
            ("decision_matrix", "decision_matrix.csv", (",A2,", ",A1,"), ["evaluate"],
             "duplicate indicator column in header"),
        ],
        ids=[
            "pool-json-indicator-nan", "pool-json-gdp-inf", "pool-csv-sports-inf",
            "pool-csv-gdp-nan", "grade-float", "grade-bool", "grade-text", "swot-string",
            "pool-json-gdp-bool", "pool-json-sports-text", "pool-json-indicator-bool",
            "pool-json-indicator-text", "series-start-float", "series-value-text",
            "series-value-bool", "matrix-json-cell-bool", "pool-json-indicator-twice",
            "matrix-csv-header-twice",
        ],
    )
    def test_input_value_of_the_wrong_kind_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, fixture, damage, argv, message
    ):
        """A NaN or infinite pool number, a JSON number given as true, false or a string, a
        series start or plan grade that is not a JSON integer, a SWOT entry that is not a
        list of strings, a pool city naming one indicator twice and a matrix header naming
        one twice each stop the run before any output. A decision matrix damaged by a
        function is written in its JSON form."""
        text = (fixtures_dir / fixture).read_text()
        if isinstance(damage, tuple):
            assert damage[0] in text
            text = text.replace(*damage, 1)
        else:
            obj = json.loads(text) if fixture.endswith(".json") else matrix_json_form(text)
            damage(obj)
            text = json.dumps(obj)
        damaged = tmp_path / fixture
        damaged.write_text(text)

        config = write_config(tmp_path, fixtures_dir, lambda cfg: cfg.update({key: str(damaged)}))
        words = 2 if argv[0] == "screen" else 1
        assert main([*argv[:words], "--config", str(config), *argv[words:]]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "edit, argv, code, message",
        [
            (None, ["weights"], EXIT_CONFIG, "config error: config root must be a JSON object"),
            (lambda cfg: cfg.pop("plans"), ["compare-schemes"], EXIT_CONFIG,
             "config error: config key 'plans' is required for this subcommand"),
            (lambda cfg: None,
             ["forecast", "--pool", "{fixtures}/winter_pool.json", "--indicator", "nope",
              "--until", "2030"],
             EXIT_VALIDATION, "validation error: no city in the pool has series 'nope'"),
            (lambda cfg: None, ["rsm", "--factors", "1,11"], EXIT_CONFIG,
             "config error: factor position 11 outside 1..10"),
            # A2 is the first selected feature: only the selection shows it is position 1.
            (lambda cfg: None, ["rsm", "--factors", "1,A2"], EXIT_CONFIG,
             "config error: rsm factors must be distinct"),
        ],
        ids=["config-root-list", "plans-unset", "series-absent", "factor-past-k",
             "factor-twice-by-id"],
    )
    def test_run_that_fails_after_its_flags_parse_prints_one_line(
        self, tmp_path, fixtures_dir, outdir, capsys, edit, argv, code, message
    ):
        """``edit`` changes the shipped config; None replaces it by a JSON list."""
        if edit is None:
            config = tmp_path / "run.json"
            config.write_text("[]")
        else:
            config = write_config(tmp_path, fixtures_dir, edit)
        argv = [a.format(fixtures=fixtures_dir) for a in argv]
        assert main([argv[0], "--config", str(config), *argv[1:]]) == code
        err = capsys.readouterr().err
        assert err == f"{message}\n" and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stdout", ["full", "closed-pipe", "ascii"])
    def test_run_with_an_unusable_stdout_exits_0_with_every_output(
        self, tmp_path, fixtures_dir, monkeypatch, stdout, unbuffered
    ):
        """The summary lines go through the writer warnings use: a full stdout
        or a pipe nobody reads loses them, an ASCII console gets them escaped,
        and the run exits 0 with the outputs a normal run writes."""
        env = {"PYTHONUNBUFFERED": unbuffered}
        sink = subprocess.PIPE
        if stdout == "ascii":
            env["PYTHONIOENCODING"] = "ascii"
            config = write_config(
                tmp_path, fixtures_dir,
                lambda cfg: cfg["rsm"].update(baseline_alternative="Brasília"),
            )
            argv = ["rsm", "--config", str(config), "--factors", "1,2", "--grid", "5"]
        else:
            argv = ["weights", "--config", str(fixtures_dir / "run.json")]
            sink = unwritable_stream(stdout)
        try:
            proc = run_python(
                ["-m", "hostrank.cli", *argv], tmp_path / "child", fixtures_dir.parent,
                env=env, stdout=sink,
            )
        finally:
            if sink is not subprocess.PIPE:
                os.close(sink)
        assert proc.returncode == EXIT_OK
        assert proc.stderr == ""
        if stdout == "ascii":
            assert "  baseline alternative: Bras\\xedlia\n" in proc.stdout
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "normal"))
        assert main(argv) == EXIT_OK
        normal = {p.name: p.read_bytes() for p in (tmp_path / "normal").iterdir()}
        assert {p.name: p.read_bytes() for p in (tmp_path / "child").iterdir()} == normal

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("stderr", ["full", "closed"])
    def test_error_with_an_unusable_stderr_keeps_its_exit_code(
        self, tmp_path, fixtures_dir, stderr, unbuffered
    ):
        """A run whose one error line cannot be written still exits 2, and
        prints nothing in its place."""
        argv = ["-m", "hostrank.cli", "weights", "--config", str(tmp_path / "missing.json")]
        env = {"PYTHONUNBUFFERED": unbuffered}
        if stderr == "closed":
            proc = run_python(["-c", CLOSE_STDERR_AND_RUN, *argv], tmp_path / "out",
                              fixtures_dir.parent, env=env)
        else:
            sink = unwritable_stream(stderr)
            try:
                proc = run_python(argv, tmp_path / "out", fixtures_dir.parent, env=env, stderr=sink)
            finally:
                os.close(sink)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_is_a_file_is_a_config_error(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(blocker))

        assert main(["weights", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory"

    def test_output_dir_too_long_to_create_is_quoted_short(self, tmp_path, config_path,
                                                            monkeypatch, capsys):
        outdir = tmp_path / ("x" * 5_000)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        assert main(["weights", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            f"config error: cannot create output directory {_brief(str(outdir))}: "
            "File name too long\n"
        )
        assert len(err) < 200
        assert list(tmp_path.iterdir()) == []

    def test_output_path_too_long_to_write_is_quoted_short(self, tmp_path, config_path,
                                                           monkeypatch, capsys):
        """A directory just short of the OS path limit is created, but its
        outputs' paths pass the limit: the first is named short, and the
        directory is left empty."""
        outdir = tmp_path
        while len(str(outdir)) < 4_080:
            outdir /= "d" * min(200, 4_080 - len(str(outdir)) - 1)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(outdir))
        assert main(["weights", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        target = outdir / "ahp_categories.csv"
        assert err == f"config error: cannot write {_brief(str(target))}: File name too long\n"
        assert len(err) < 200
        assert list(outdir.iterdir()) == []

    def test_output_file_that_cannot_be_written_is_a_config_error(
        self, config_path, outdir, capsys
    ):
        """A target that is not a regular file stops the run before any output is replaced."""
        blocker = outdir / "features.csv"
        blocker.mkdir(parents=True)
        (outdir / "evaluation.csv").write_bytes(b"stale\n")
        (outdir / "notes.txt").write_bytes(b"not an output\n")

        assert main(["evaluate", "--config", str(config_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {_brief(str(blocker))}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert blocker.is_dir()
        assert (outdir / "evaluation.csv").read_bytes() == b"stale\n"
        assert (outdir / "notes.txt").read_bytes() == b"not an output\n"
        left = sorted(p.name for p in outdir.iterdir())
        assert left == ["evaluation.csv", "features.csv", "notes.txt"]

    def test_write_that_fails_midway_replaces_nothing(
        self, config_path, outdir, capsys, monkeypatch
    ):
        outdir.mkdir()
        (outdir / "evaluation.csv").write_bytes(b"stale\n")
        write_text = Path.write_text
        calls = []

        def failing_second_write(self, *args, **kwargs):
            calls.append(self)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_second_write)
        assert main(["evaluate", "--config", str(config_path)]) == EXIT_CONFIG
        monkeypatch.undo()
        err = capsys.readouterr().err
        target = outdir / "features.csv"
        assert err == f"config error: cannot write {_brief(str(target))}: No space left on device\n"
        assert (outdir / "evaluation.csv").read_bytes() == b"stale\n"
        assert sorted(p.name for p in outdir.iterdir()) == ["evaluation.csv"]

    @pytest.mark.parametrize(
        "argv, feature_count, message",
        [
            (["sensitivity", "--trials", "0"], None, "need at least one trial"),
            (["sensitivity", "--n-swap", "-1"], None, "n_swap must be nonnegative"),
            (["sensitivity", "--seed", "-1"], None, "seed must be a nonnegative integer"),
            (["rsm", "--factors", "1,2", "--grid", "2"], None, "grid needs at least 3 levels"),
            (["rsm", "--factors", "1,2,3,4"], None, "rsm expects two or three factors"),
            (["rsm", "--factors", "foo,1"], None, "unknown indicator 'foo'"),
            (["rsm", "--factors", "²,1"], None, "unknown indicator '²'"),
            (["rsm", "--factors", "1,1"], None, "rsm factors must be distinct"),
            (["rsm", "--factors", "xi2,2"], None, "rsm factors must be distinct"),
            (["rsm", "--factors", "A5, A5"], None, "rsm factors must be distinct"),
            (["rsm", "--factors", "0,1"], None, "factor position 0 is below 1"),
            (["rsm", "--factors", "1,2", "--grid", "1001"], None,
             "--grid must be at most 1000 for 2 factors (1000000 points), got 1001"),
            (["rsm", "--factors", "1,2,3", "--grid", "101"], None,
             "--grid must be at most 100 for 3 factors (1000000 points), got 101"),
            # The indicator count bounds the feature count, so these read the hierarchy.
            (["evaluate", "--features", "0"], None, "--features must be in 1..30, got 0"),
            (["evaluate", "--features", "31"], None, "--features must be in 1..30, got 31"),
            (
                ["evaluate"], 31,
                "config key 'weighting.feature_count' must be in 1..30, got 31",
            ),
            (["weights"], 31, "'weighting.feature_count' must be in 1..30, got 31"),
        ],
    )
    def test_bad_flag_is_a_config_error_before_inputs_are_read(
        self, tmp_path, fixtures_dir, outdir, capsys, argv, feature_count, message
    ):
        """Judgments that are not JSON and a matrix that is not UTF-8 exit 3 if read;
        so does the hierarchy, unless the check needs it."""
        unread = {
            "hierarchy": tmp_path / "hierarchy.json",
            "judgments": tmp_path / "judgments.json",
            "decision_matrix": tmp_path / "decision_matrix.csv",
        }
        unread["hierarchy"].write_text("{")
        unread["judgments"].write_text("{")
        matrix = (fixtures_dir / "decision_matrix.csv").read_bytes()
        unread["decision_matrix"].write_bytes(matrix.replace(b"a", b"\xe0", 1))
        if "--features" in argv or feature_count is not None:
            del unread["hierarchy"]

        def edit(cfg):
            cfg.update({key: str(path) for key, path in unread.items()})
            if feature_count is not None:
                cfg["weighting"]["feature_count"] = feature_count

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main([argv[0], "--config", str(config), *argv[1:]]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "section, key, value, argv",
        [
            (None, "seed", "abc", ["weights"]),
            ("sensitivity", "trials", "ten", ["sensitivity"]),
            ("sensitivity", "n_swap", "x", ["sensitivity", "--trials", "2"]),
            ("rsm", "span", 5.0, ["rsm", "--factors", "1,2", "--grid", "5"]),
            ("rsm", "span", -0.5, ["rsm", "--factors", "1,2", "--grid", "5"]),
            ("rsm", "span", "wide", ["rsm", "--factors", "1,2", "--grid", "5"]),
            # Each key is checked whichever subcommand runs.
            (None, "hierarchy", 5, ["weights"]),
            (None, "weighting", [1], ["weights"]),
            ("weighting", "coverage_target", "x", ["weights"]),
            ("weighting", "coverage_target", 2.0, ["weights"]),
            ("weighting", "mode", "bogus", ["weights"]),
            ("weighting", "feature_count", 0, ["weights"]),
            ("ingestion", "impute_missing", "false", ["weights"]),
            ("sensitivity", "trials", 1.5, ["weights"]),
            ("screen.winter", "until", 2050.9, ["weights"]),
            ("screen.winter", "exclude", "Calgary", ["weights"]),
            ("screen.winter", "requirement", [1], ["weights"]),
            ("screen.winter.requirement", "max_feb_temp", "x", ["weights"]),
            ("screen.winter.requirement", "ideal_temp_range", 5, ["weights"]),
            ("screen.winter.requirement", "ideal_temp_range", [1, 2, 3], ["weights"]),
            ("screen.winter", "s_base", {"Calgary": "x"}, ["weights"]),
            ("screen.winter", "s_base", [1], ["weights"]),
        ],
    )
    def test_bad_config_value_is_a_config_error(
        self, tmp_path, fixtures_dir, outdir, capsys, section, key, value, argv
    ):
        """``section`` is the dotted path of the block that holds ``key``."""
        # A hierarchy file that is not JSON exits 3 if any input is read first.
        unread = tmp_path / "hierarchy.json"
        unread.write_text("{")

        def edit(cfg):
            cfg["hierarchy"] = str(unread)
            node = cfg
            for block in section.split(".") if section else ():
                node = node[block]
            node[key] = value

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main([argv[0], "--config", str(config), *argv[1:]]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert repr(f"{section}.{key}" if section else key) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value", [("max_feb_snow", 40.0), ("foo", 1), ("foo", None)])
    def test_key_the_climate_requirement_lacks_is_a_config_error(
        self, tmp_path, fixtures_dir, outdir, capsys, key, value
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["requirement"][key] = value

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main(["weights", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config key 'screen.winter.requirement.{key}' is not one of "
            "max_feb_temp, ideal_temp_range, min_feb_snow\n"
        )
        assert not outdir.exists()

    def test_degenerate_design_is_a_numeric_error(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        """A zero-width perturbation box collapses every design point onto one
        spot; the surface fit is then rank-deficient."""
        from hostrank.cli import EXIT_NUMERIC

        cfg = json.loads((fixtures_dir / "run.json").read_text())
        for key in ("hierarchy", "judgments", "decision_matrix", "pool", "plans", "swot"):
            cfg[key] = str(fixtures_dir / cfg[key])
        cfg["rsm"]["span"] = 0.0
        bad_cfg = tmp_path / "run.json"
        bad_cfg.write_text(json.dumps(cfg))

        code = main(["rsm", "--config", str(bad_cfg), "--factors", "1,2", "--grid", "5"])
        assert code == EXIT_NUMERIC
        assert "numeric error" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv, city",
        [
            (["forecast", "--indicator", "feb_temp_c", "--until", "100000", "--city", "Calgary"],
             "Calgary"),
            (["screen", "winter"], "Warsaw"),
        ],
        ids=["forecast", "screen-winter"],
    )
    def test_forecast_past_the_float_range_is_one_line_without_numpy_warnings(
        self, tmp_path, fixtures_dir, outdir, capsys, argv, city
    ):
        """GM(1,1) curves overflow long before period 100000; the error is
        the only output, and numpy's overflow warnings never reach stderr."""
        config = write_config(
            tmp_path, fixtures_dir, lambda cfg: cfg["screen"]["winter"].update(until=100000)
        )
        words = 2 if argv[0] == "screen" else 1
        pool = fixtures_dir / "winter_pool.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*argv[:words], "--pool", str(pool), "--config", str(config),
                         *argv[words:]])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"validation error: series '{city}/feb_temp_c' contains non-finite values\n"
        )
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not outdir.exists()


    @pytest.mark.parametrize(
        "until, city, message",
        [
            # Calgary from 2015 on: 1,000,001 rows
            (1_002_015, "Calgary", "config error: --until must be at most 1002014 for 1 series "
             "(1000000 rows), got 1002015"),
            # 12 cities from 2015 on: 83,334 rows each, 1,000,008 in all
            (85_348, None, "config error: --until must be at most 85347 for 12 series "
             "(1000000 rows), got 85348"),
            (1_002_014, "Calgary",
             "validation error: series 'Calgary/feb_temp_c' contains non-finite values"),
        ],
    )
    def test_forecast_table_past_a_million_rows_is_refused(
        self, fixtures_dir, config_path, outdir, capsys, until, city, message
    ):
        """The row count is known before any series is forecast; at the cap
        the run goes on and ends in the curve's overflow."""
        argv = ["forecast", "--config", str(config_path), "--pool",
                str(fixtures_dir / "winter_pool.json"), "--indicator", "feb_temp_c",
                "--until", str(until)]
        code = main([*argv, *(["--city", city] if city else [])])
        assert code == (EXIT_CONFIG if message.startswith("config") else EXIT_VALIDATION)
        assert capsys.readouterr().err == message + "\n"
        assert not outdir.exists()


    @pytest.mark.parametrize(
        "trials, flag, message",
        [
            (10**300, False, "config error: config key 'sensitivity.trials' must be at most "
             f"44444 for 45 alternatives (2000000 rows), got {'1' + '0' * 59}... "
             "(301 characters)\n"),
            (10**12, True, "config error: --trials must be at most 44444 for 45 alternatives "
             "(2000000 rows), got 1000000000000\n"),
        ],
        ids=["config", "flag"],
    )
    def test_sensitivity_past_two_million_rows_is_refused(
        self, tmp_path, fixtures_dir, outdir, capsys, trials, flag, message
    ):
        """Trials x alternatives is known once the matrix is read, before any
        trial runs: past 2,000,000 rows the run exits 2 in one line."""
        config = write_config(
            tmp_path, fixtures_dir,
            lambda cfg: None if flag else cfg["sensitivity"].update(trials=trials),
        )
        outdir.mkdir()
        (outdir / "sensitivity.csv").write_text("from an earlier run\n")
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        argv = ["sensitivity", "--config", str(config)]
        assert main([*argv, *(["--trials", str(trials)] if flag else [])]) == EXIT_CONFIG
        assert capsys.readouterr().err == message
        assert len(message) < 200
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    def test_sensitivity_at_the_row_cap_runs(self, config_path, outdir, capsys, monkeypatch):
        """The cap counts rows: with room for 3 trials of the 45 alternatives,
        3 trials run and 4 are refused."""
        from hostrank import cli

        monkeypatch.setattr(cli, "_MAX_SENSITIVITY_ROWS", 45 * 3)
        argv = ["sensitivity", "--config", str(config_path), "--trials"]
        assert main([*argv, "4"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --trials must be at most 3 for 45 alternatives (135 rows), got 4\n"
        )
        assert not outdir.exists()
        assert main([*argv, "3"]) == EXIT_OK
        _, rows = read_table(outdir / "sensitivity.csv")
        assert len([r for r in rows if r["section"] == "trial"]) == 45 * 3

    @pytest.mark.parametrize(
        "argv",
        [["forecast", "--indicator", "feb_temp_c", "--until", "2030", "--city", "Calgary"],
         ["screen", "winter"]],
        ids=["forecast", "screen-winter"],
    )
    def test_series_whose_cumulative_sum_overflows_is_a_numeric_error(
        self, tmp_path, fixtures_dir, config_path, outdir, capsys, argv
    ):
        """Finite values whose running sum leaves the float range: one line,
        exit 4, and no class-ratio warning before it. Every city holds them,
        so the gate stops at the first city it forecasts."""
        from hostrank.cli import EXIT_NUMERIC

        pool = json.loads((fixtures_dir / "winter_pool.json").read_text())
        for city in pool["cities"]:
            city["climate"]["feb_temp_c"]["values"] = [1e308, 1.7e308, 1e308, 1.2e308]
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(pool))
        words = 2 if argv[0] == "screen" else 1
        code = main([*argv[:words], "--pool", str(path), "--config", str(config_path),
                     *argv[words:]])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"numeric error: cumulative sum of series '\w+/feb_temp_c' overflows\n", err
        )
        if argv[0] == "forecast":
            assert "'Calgary/" in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "key, damage, argv, code, message",
        [
            ("pool", lambda obj: obj["cities"][0]["climate"]["feb_temp_c"]["values"].__setitem__(
                1, _PAST_FLOATS), ["screen", "winter"], EXIT_VALIDATION,
             "bad value in pool city #1: value of 'Calgary/feb_temp_c' must be a number"),
            ("pool", lambda obj: obj["cities"][0]["climate"]["feb_temp_c"].update(
                start_period=_PAST_FLOATS), ["screen", "winter"], EXIT_VALIDATION,
             "bad value in pool city #1: start_period of 'Calgary/feb_temp_c' must be an integer"),
            ("pool", lambda obj: obj["cities"][1].update(gdp=_PAST_FLOATS), ["screen", "winter"],
             EXIT_VALIDATION, "bad value in pool city #2: gdp must be a number"),
            ("pool", lambda obj: obj["cities"][0]["indicators"].update(A2=_PAST_FLOATS),
             ["screen", "winter"], EXIT_VALIDATION, "bad value in pool city #1: A2 must be a number"),
            ("pool", lambda obj: obj["cities"][0]["climate"]["feb_temp_c"]["values"].__setitem__(
                1, _PAST_FLOATS), ["forecast", "--indicator", "feb_temp_c", "--until", "2030"],
             EXIT_VALIDATION,
             "bad value in pool city #1: value of 'Calgary/feb_temp_c' must be a number"),
            ("config", lambda cfg: cfg["screen"]["winter"]["s_base"].update(Calgary=_PAST_FLOATS),
             ["screen", "winter"], EXIT_CONFIG,
             "config key 'screen.winter.s_base' must be an object of numbers"),
            ("config", lambda cfg: cfg["screen"]["winter"].update(until=_PAST_FLOATS),
             ["screen", "winter"], EXIT_CONFIG, "config key 'screen.winter.until' must be an integer"),
            ("config", lambda cfg: cfg["screen"]["summer"].update(default_s_base=_PAST_FLOATS),
             ["screen", "summer"], EXIT_CONFIG,
             "config key 'screen.summer.default_s_base' must be a number"),
            ("config", lambda cfg: cfg.update(seed=_PAST_FLOATS), ["weights"], EXIT_CONFIG,
             "config key 'seed' must be an integer >= 0"),
            ("config", lambda cfg: cfg["weighting"].update(feature_count=_PAST_FLOATS),
             ["weights"], EXIT_CONFIG,
             "config key 'weighting.feature_count' must be an integer >= 1"),
            ("judgments", lambda obj: obj["primary"][0].__setitem__(1, _PAST_FLOATS), ["weights"],
             EXIT_VALIDATION, "judgment matrix 'primary' is not a numeric square array"),
            ("decision_matrix", lambda obj: obj["values"][0].__setitem__(0, _PAST_FLOATS),
             ["evaluate"], EXIT_VALIDATION,
             "bad value in decision matrix file: cell at row 'New York' must be a number"),
        ],
        ids=[
            "series-value", "series-start", "gdp", "indicator", "forecast-series", "s_base",
            "until", "summer-default-s_base", "seed", "feature_count", "judgment",
            "matrix-json-cell",
        ],
    )
    def test_integer_past_the_float_range_fails_in_one_line(
        self, tmp_path, fixtures_dir, outdir, capsys, key, damage, argv, code, message
    ):
        """A JSON integer that float() cannot represent is no number: bad
        input exits 3 and a bad config 2, in one short line."""
        pool = tmp_path / "winter_pool.json"
        pool.write_text((fixtures_dir / "winter_pool.json").read_text())

        def edit(cfg):
            if key == "config":
                damage(cfg)
            elif key != "pool":
                text = (fixtures_dir / cfg[key]).read_text()
                obj = json.loads(text) if key == "judgments" else matrix_json_form(text)
                damage(obj)
                cfg[key] = str(tmp_path / f"{key}.json")
                (tmp_path / f"{key}.json").write_text(json.dumps(obj))

        if key == "pool":
            obj = json.loads(pool.read_text())
            damage(obj)
            pool.write_text(json.dumps(obj))
        config = write_config(tmp_path, fixtures_dir, edit)
        outdir.mkdir()
        (outdir / "total_weights.csv").write_text("from an earlier run\n")
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        words = 2 if argv[0] == "screen" else 1
        pool_args = ["--pool", str(pool)] if argv[0] in ("screen", "forecast") else []
        assert main([*argv[:words], *pool_args, "--config", str(config), *argv[words:]]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err) < 200
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    @pytest.mark.parametrize("key", ["config", "pool"])
    def test_integer_past_the_digit_limit_fails_in_one_line(
        self, tmp_path, fixtures_dir, outdir, capsys, key
    ):
        """Python's json refuses an integer of over 4,300 digits with a
        ValueError: in the config that exits 2, in an input file 3. Both are
        read from a directory with a 200-character name."""
        digits = "9" * 5_000
        tmp_path = tmp_path / ("d" * 200)
        tmp_path.mkdir()
        config = write_config(tmp_path, fixtures_dir, lambda cfg: None)
        pool = fixtures_dir / "winter_pool.json"
        if key == "config":
            config.write_text(config.read_text().replace('"seed": 20260810', f'"seed": {digits}'))
        else:
            pool = tmp_path / "pool.json"
            text = (fixtures_dir / "winter_pool.json").read_text()
            pool.write_text(text.replace('"gdp": ', f'"gdp": {digits}, "was": ', 1))
        code = main(["screen", "winter", "--pool", str(pool), "--config", str(config)])
        assert code == (EXIT_CONFIG if key == "config" else EXIT_VALIDATION)
        err = capsys.readouterr().err
        assert "Exceeds the limit (4300 digits)" in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err) < 200
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "case",
        [
            "pool city", "duplicate city", "duplicate country", "series value", "plan id",
            "--city", "requirement key", "rsm baseline", "plan description", "plan grade",
            "plan impacts", "plan coverage", "swot city", "summer city", "winter feature",
            "winter base score",
        ],
    )
    def test_long_name_is_quoted_short(self, tmp_path, fixtures_dir, outdir, capsys, case):
        """A 50,000-character city name, country, plan id, config key or
        baseline is quoted by its first 60 characters and its length, in one
        line under 200 characters: exit 2 for a config value, else 3."""
        name = "n" * 50_000
        cut = f"'{'n' * 59}... (50002 characters)"
        pool = json.loads((fixtures_dir / "winter_pool.json").read_text())
        plans = json.loads((fixtures_dir / "plans.json").read_text())
        swot = json.loads((fixtures_dir / "swot.json").read_text())
        edits = []
        argv = ["screen", "winter"]
        code = EXIT_VALIDATION
        if case == "pool city":
            pool["cities"][0].update(name=name, gdp=float("inf"))
            message = f"pool city {cut} has a non-finite gdp: inf"
        elif case == "duplicate city":
            pool["cities"][1].update(name=name, country=pool["cities"][0]["country"])
            pool["cities"][0]["name"] = name
            message = f"duplicate city {cut} ({pool['cities'][0]['country']!r}) in pool"
        elif case == "duplicate country":
            pool["cities"][1]["name"] = pool["cities"][0]["name"]
            pool["cities"][0]["country"] = pool["cities"][1]["country"] = name
            message = f"duplicate city {pool['cities'][0]['name']!r} ({cut}) in pool"
        elif case == "series value":
            pool["cities"][0]["name"] = name
            pool["cities"][0]["climate"]["feb_snow_cm"]["values"][2] = "x"
            label = f"'{'n' * 59}... (50014 characters)"  # the label is name/feb_snow_cm
            message = (
                f"bad value in pool city #1: value of {label} must be a number, got 'x'"
            )
        elif case == "plan id":
            plans["plans"][1]["id"] = plans["plans"][2]["id"] = name
            argv = ["compare-schemes"]
            message = f"duplicate plan id {cut} in plans file"
        elif case == "--city":
            argv = ["forecast", "--indicator", "feb_temp_c", "--until", "2030", "--city", name]
            message = f"city {cut} not in pool"
        elif case == "requirement key":
            edits.append(lambda cfg: cfg["screen"]["winter"]["requirement"].update({name: 1}))
            argv, code = ["weights"], EXIT_CONFIG
            key = f"'screen.winter.requirement.{'n' * 33}... (50028 characters)"
            message = (
                f"config key {key} is not one of max_feb_temp, ideal_temp_range, min_feb_snow"
            )
        elif case == "rsm baseline":
            edits.append(lambda cfg: cfg["rsm"].update(baseline_alternative=name))
            argv, code = ["rsm", "--factors", "1,2"], EXIT_CONFIG
            message = f"baseline alternative {cut} not in the decision matrix"
        elif case == "plan description":
            plans["plans"][1].update(id=name, description=5)
            argv = ["compare-schemes"]
            message = f"bad value in plans file: description of {cut} must be a string, got 5"
        elif case == "plan grade":
            # The grade is named by its id, not by the key as written.
            impacts = plans["plans"][1]["impacts"]
            impacts["A2" + " " * 50_000] = 4
            del impacts["A2"]
            plans["plans"][1]["id"] = name
            argv = ["compare-schemes"]
            message = (
                f"bad value in plans file: grade of A2 in plan {cut} must be one of "
                "1, 3, 5, 7, 9, got 4"
            )
        elif case == "plan impacts":
            plans["plans"][1].update(id=name, impacts=["A1"])
            argv = ["compare-schemes"]
            message = f"bad value in plans file: impacts of {cut} must be an object, got ['A1']"
        elif case == "plan coverage":
            del plans["plans"][1]["impacts"]["C7"]
            plans["plans"][1]["id"] = name
            argv = ["compare-schemes"]
            message = f"plan {cut} impacts do not cover the feature group: missing C7"
        elif case == "swot city":
            swot["records"][0].update(city=name, strengths=5)
            edits.append(lambda cfg: cfg.update(swot=str(tmp_path / "swot.json")))
            argv = ["screen", "summer", "--pool", str(fixtures_dir / "world_pool.csv")]
            message = (
                f"bad value in swot file: strengths of {cut} must be a list of strings, got 5"
            )
        elif case == "summer city":
            pool["cities"][0].update(name=name, sports_score=1e6)
            argv = ["screen", "summer"]
            message = f"sample {cut} not in matrix"
        elif case == "winter feature":
            del pool["cities"][0]["indicators"]["C7"]
            pool["cities"][0]["name"] = name
            message = f"city {cut} is missing a value for feature C7"
        else:
            pool["cities"][0]["name"] = name
            edits.append(lambda cfg: cfg["screen"]["winter"].update(default_s_base=None))
            code = EXIT_CONFIG
            message = f"no base score configured for city {cut}"
        (tmp_path / "pool.json").write_text(json.dumps(pool))
        (tmp_path / "plans.json").write_text(json.dumps(plans))
        (tmp_path / "swot.json").write_text(json.dumps(swot))
        edits.append(lambda cfg: cfg.update(plans=str(tmp_path / "plans.json")))
        config = write_config(tmp_path, fixtures_dir, lambda cfg: [edit(cfg) for edit in edits])
        words = {"screen": 2, "forecast": 1}.get(argv[0])
        if words and "--pool" not in argv:
            argv = [*argv[:words], "--pool", str(tmp_path / "pool.json"), *argv[words:]]
        with warnings.catch_warnings():
            # The two winter cases gate the pool, where two fixture series warn.
            warnings.filterwarnings("ignore", "series .* fails the class-ratio test", UserWarning)
            assert main([*argv, "--config", str(config)]) == code
        err = capsys.readouterr().err
        kind = "config" if code == EXIT_CONFIG else "validation"
        assert err == f"{kind} error: {message}\n"
        assert len(err) < 200
        assert not outdir.exists()

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("digits", [301, 4_000])
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--features={}"],
            ["sensitivity", "--n-swap={}"],
            ["sensitivity", "--trials={}"],
            ["rsm", "--factors=1,2", "--grid={}"],
            ["rsm", "--factors={},1"],
            ["forecast", "--indicator=feb_temp_c", "--until={}"],
        ],
        ids=["features", "n-swap", "trials", "grid", "factor", "until"],
    )
    def test_long_integer_flag_fails_in_one_short_line(
        self, fixtures_dir, config_path, outdir, capsys, argv, digits, sign
    ):
        """A flag integer of hundreds or thousands of digits is refused, and
        quoted short: exit 2, or 3 for an --until before the series end."""
        argv = [arg.format(sign + "9" * digits) for arg in argv]
        if argv[0] == "forecast":
            argv.append(f"--pool={fixtures_dir / 'winter_pool.json'}")
        code = main([*argv, "--config", str(config_path)])
        err = capsys.readouterr().err
        assert code in (EXIT_CONFIG, EXIT_VALIDATION)
        assert err.count("\n") == 1 and len(err) < 200 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("value", ["ten", "9" * 5_000])
    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--features"],
            ["forecast", "--indicator=feb_temp_c", "--until"],
            ["sensitivity", "--seed"],
            ["sensitivity", "--trials"],
            ["sensitivity", "--n-swap"],
            ["rsm", "--factors=1,2", "--grid"],
        ],
        ids=["features", "until", "seed", "trials", "n-swap", "grid"],
    )
    def test_integer_flag_that_does_not_parse_is_quoted_short(
        self, config_path, outdir, capsys, argv, value
    ):
        """A value int() refuses, a word or past its 4,300 digits, is a usage
        error: exit 2, argparse's usage lines, and the value cut short."""
        with pytest.raises(SystemExit) as exc:
            main([*argv, value, "--config", str(config_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0].startswith("usage: hostrank ")
        assert lines[-1].endswith(f"argument {argv[-1]}: invalid int value: {_brief(value)}")
        assert max(map(len, lines)) < 200 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rsm", "--factors", "1,2", "--grid", "9" * 3_001],
             "--grid must be at most 1000 for 2 factors (1000000 points), got "
             f"{'9' * 60}... (3001 characters)"),
            (["rsm", "--factors", "9" * 5_000 + ",1"],
             f"factor position '{'9' * 59}... (5002 characters) has more than 18 digits"),
            (["forecast", "--indicator", "feb_temp_c", "--until", "9" * 4_300],
             "--until must be at most 85347 for 12 series (1000000 rows), got "
             f"{'9' * 60}... (4300 characters)"),
        ],
        ids=["grid", "factor", "until"],
    )
    def test_integer_too_long_to_print_is_refused_before_it_is_printed(
        self, fixtures_dir, config_path, outdir, capsys, argv, message
    ):
        """Python refuses to format an int of over 4,300 digits: the grid's
        point count, a factor position and the forecast's row count never are."""
        if argv[0] == "forecast":
            argv = [*argv, "--pool", str(fixtures_dir / "winter_pool.json")]
        assert main([*argv, "--config", str(config_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("where", ["--config", "--pool", "--plans", "config key"])
    def test_path_too_long_to_check_is_a_config_error(
        self, tmp_path, fixtures_dir, outdir, capsys, where
    ):
        """A 5,000-character file name cannot even be looked up (ENAMETOOLONG):
        one config-error line that quotes the path short, exit 2."""
        long_path = tmp_path / ("p" * 5_000)
        config = write_config(
            tmp_path, fixtures_dir,
            lambda cfg: cfg.update(pool=str(long_path)) if where == "config key" else None,
        )
        argv = {
            "--config": ["weights", "--config", str(long_path)],
            "--pool": ["screen", "winter", "--pool", str(long_path), "--config", str(config)],
            "--plans": ["compare-schemes", "--plans", str(long_path), "--config", str(config)],
            "config key": ["weights", "--config", str(config)],
        }[where]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and _brief(str(long_path)) in err
        assert err.count("\n") == 1 and len(err) < 200 and "Traceback" not in err
        assert not outdir.exists()

    @pytest.mark.parametrize("case", ["config not JSON", "config not UTF-8", "input not UTF-8"])
    def test_undecodable_file_in_a_long_directory_is_quoted_short(
        self, tmp_path, fixtures_dir, outdir, capsys, case
    ):
        """A config that is not JSON or not UTF-8, or an input that is not
        UTF-8, under a 200-character directory name: one line under 200
        characters that quotes the path short, exit 2 for the config, else 3."""
        deep = tmp_path / ("d" * 200)
        deep.mkdir()
        damaged = deep / "hierarchy.json"
        damaged.write_bytes((fixtures_dir / "hierarchy.json").read_bytes().replace(b"a", b"\xe0", 1))

        def edit(cfg):
            if case == "input not UTF-8":
                cfg["hierarchy"] = str(damaged)

        config = write_config(deep, fixtures_dir, edit)
        quoted = f"config file {_brief(str(config))}"
        if case == "config not JSON":
            config.write_text(config.read_text()[:40])
            code, message = EXIT_CONFIG, f"{quoted} is not valid JSON: "
        elif case == "config not UTF-8":
            config.write_bytes(b"\xe0" + config.read_bytes())
            code, message = EXIT_CONFIG, f"{quoted} is not UTF-8 text (byte 0)\n"
        else:
            code, message = EXIT_VALIDATION, f"{_brief(str(damaged))} is not UTF-8 text (byte "
        assert main(["weights", "--config", str(config)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert err.count("\n") == 1 and len(err) < 200
        assert not outdir.exists()


class TestDeterminism:
    def test_rerunning_reproduces_byte_identical_outputs(
        self, config_path, tmp_path, monkeypatch
    ):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_a))
        assert main(["weights", "--config", str(config_path)]) == EXIT_OK
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(out_b))
        assert main(["weights", "--config", str(config_path)]) == EXIT_OK
        for path_a in sorted(out_a.iterdir()):
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes()

    def test_outputs_embed_config_hash_and_seed(self, config_path, outdir):
        assert main(["weights", "--config", str(config_path)]) == EXIT_OK
        header, _ = read_table(outdir / "total.csv")
        assert len(header["config_hash"]) == 64
        assert header["seed"] == "20260810"
        assert header["invocation"].startswith("weights")


def table_bodies(outdir: Path) -> dict[str, str]:
    """Each output file's text without its provenance header lines."""
    return {
        path.name: "".join(
            line for line in path.read_text().splitlines(True) if not line.startswith("# ")
        )
        for path in sorted(outdir.iterdir())
    }


class TestInputText:
    """Every delimited input splits at its sniffed delimiter, and every input
    loses one leading byte order mark."""

    @pytest.mark.parametrize(
        "key, fixture, argv",
        [
            ("config", "run.json", ["weights"]),
            ("pool", "winter_pool.json", ["screen", "winter"]),
            ("pool", "world_pool.csv", ["screen", "summer"]),
            ("decision_matrix", "decision_matrix.csv", ["evaluate"]),
        ],
    )
    def test_input_with_a_byte_order_mark_gives_the_same_tables(
        self, tmp_path, fixtures_dir, outdir, key, fixture, argv
    ):
        bodies = []
        for mark in (b"", b"\xef\xbb\xbf"):
            folder = tmp_path / ("marked" if mark else "plain")
            folder.mkdir()
            copy = folder / fixture

            def edit(cfg):
                if key != "config":
                    copy.write_bytes(mark + (fixtures_dir / fixture).read_bytes())
                    cfg[key] = str(copy)

            config = write_config(folder, fixtures_dir, edit)
            if key == "config":
                config.write_bytes(mark + config.read_bytes())
            with warnings.catch_warnings(record=True) as caught:  # the winter gate warns
                warnings.simplefilter("always")
                assert main([*argv, "--config", str(config)]) == EXIT_OK
            bodies.append((table_bodies(outdir), [str(w.message) for w in caught]))
            shutil.rmtree(outdir)
        assert bodies[0][0] and bodies[1] == bodies[0]

    def test_config_hash_is_the_hash_of_the_marked_bytes(self, tmp_path, fixtures_dir):
        config = write_config(tmp_path, fixtures_dir, lambda cfg: None)
        plain = RunConfig.load(config).config_hash
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        marked = RunConfig.load(config).config_hash
        assert marked == hashlib.sha256(config.read_bytes()).hexdigest() != plain

    def test_semicolon_pool_screens_to_the_same_bytes(
        self, tmp_path, fixtures_dir, config_path, monkeypatch
    ):
        semicolons = tmp_path / "world_pool.csv"
        semicolons.write_text((fixtures_dir / "world_pool.csv").read_text().replace(",", ";"))
        written = {}
        for name, pool in [("comma", fixtures_dir / "world_pool.csv"), ("semicolon", semicolons)]:
            monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / name))
            argv = ["screen", "summer", "--config", str(config_path), "--pool", str(pool)]
            assert main(argv) == EXIT_OK
            written[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert len(written["comma"]) == 4
        assert written["semicolon"] == written["comma"]


class TestTracedRun:
    """perfbench/trace_child.py wraps hostrank functions by name; a renamed or
    deleted one makes it fail before the command runs."""

    def run_child(self, fixtures_dir, tmp_path, script, args):
        root = fixtures_dir.parent
        env = {**os.environ, OUTPUT_DIR_ENV: str(tmp_path / "out")}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / script), *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    def traced_counts(self, fixtures_dir, tmp_path, argv):
        spans = tmp_path / "spans.json"
        self.run_child(
            fixtures_dir, tmp_path, "trace_child.py",
            [str(spans), "0", "--", *argv, "--config", str(fixtures_dir / "run.json")],
        )
        return json.loads(spans.read_text().splitlines()[0])["counts"]

    def test_weights_runs_under_the_benchmark_tracer(self, fixtures_dir, tmp_path):
        counts = self.traced_counts(fixtures_dir, tmp_path, ["weights"])
        assert counts["pipeline.compute_weights_calls"] == 1

    def test_evaluate_reads_each_row_once_under_the_tracer(self, fixtures_dir, tmp_path):
        """The benchmark's evaluate workload pins one row() read per parsed row."""
        counts = self.traced_counts(fixtures_dir, tmp_path, ["evaluate"])
        assert counts["indicators.row_calls"] == counts["indicators.rows_parsed"] == 45

    def test_screen_winter_runs_under_the_tracer(self, fixtures_dir, tmp_path):
        pool = str(fixtures_dir / "winter_pool.json")
        counts = self.traced_counts(fixtures_dir, tmp_path, ["screen", "winter", "--pool", pool])
        # load_judgments and load_requirement, which the config parse calls
        assert counts["dataio.load_other_calls"] == 2
        assert counts["selection.gate_passed"] == 3
        # perfbench pins one fit per gated series and counts the class-ratio failures.
        assert counts["grey.fit_gm11_calls"] == 2 * counts["selection.gate_gated"] == 18
        assert counts["grey.class_ratio_warnings"] == 2

    def test_compare_schemes_runs_under_the_tracer(self, fixtures_dir, tmp_path):
        counts = self.traced_counts(fixtures_dir, tmp_path, ["compare-schemes"])
        # load_judgments, load_requirement and load_plans
        assert counts["dataio.load_other_calls"] == 3

    @pytest.mark.parametrize(
        "argv, files",
        [
            (["weights", "--method", "ahp"],
             ["ahp_categories.csv", "ahp_consistency.csv", "ahp_indicators.csv"]),
            (["weights", "--method", "entropy"], ["entropy.csv"]),
            (["forecast", "--pool", "{fixtures}/winter_pool.json", "--indicator", "feb_temp_c",
              "--until", "2030"], ["forecast.csv"]),
            (["screen", "summer", "--pool", "{fixtures}/world_pool.csv"],
             ["summer_features.csv", "summer_ranking.csv", "summer_screen.csv", "swot_report.txt"]),
            (["sensitivity", "--trials", "3"], ["sensitivity.csv"]),
            (["rsm", "--factors", "1,2", "--grid", "5"],
             ["rsm_extrema.csv", "rsm_grid.csv", "rsm_surface.csv"]),
        ],
        ids=["weights-ahp", "weights-entropy", "forecast", "screen-summer", "sensitivity", "rsm"],
    )
    def test_every_table_renders_once_under_the_tracer(self, fixtures_dir, tmp_path, argv, files):
        """render_table runs once per CSV table; sensitivity.csv and the SWOT
        report are preformatted text that only gets the header."""
        argv = [a.format(fixtures=fixtures_dir) for a in argv]
        counts = self.traced_counts(fixtures_dir, tmp_path, argv)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == files
        tables = [f for f in files if f not in ("sensitivity.csv", "swot_report.txt")]
        assert counts.get("reporting.render_table_calls", 0) == len(tables)

    def test_setup_probe_loads_every_input(self, fixtures_dir, tmp_path):
        """perfbench/setup_child.py reads RunConfig and the loaders by name."""
        loaders = ["load_hierarchy", "load_judgments", "load_decision_matrix", "load_pool"]
        self.run_child(
            fixtures_dir, tmp_path, "setup_child.py", [str(fixtures_dir / "run.json"), *loaders]
        )


def run_python(
    args: list[str], outdir: Path, cwd: Path, env: dict[str, str] | None = None,
    stdout: int = subprocess.PIPE, stderr: int = subprocess.PIPE,
) -> subprocess.CompletedProcess:
    """``python ARGS`` in a child process with ``src`` on the path, writing into
    ``outdir``; ``env`` adds to the environment, and a stream not piped is
    the file descriptor given."""
    env = {**os.environ, **(env or {}), OUTPUT_DIR_ENV: str(outdir)}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(cwd / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=stderr, text=True,
        timeout=60,
    )


def unwritable_stream(kind: str) -> int:
    """A file descriptor every write to fails: the full device, or a pipe nobody reads."""
    if kind == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full on this platform")
        return os.open("/dev/full", os.O_WRONLY)
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


# A child that closes its stderr, then runs Python on its own arguments.
CLOSE_STDERR_AND_RUN = (
    "import os, sys; os.close(2); os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
)


# The forecast run whose GM(1,1) curve leaves the float range (exit 3).
OVERFLOW_ARGV = [
    "forecast", "--config", "fixtures/run.json", "--pool", "fixtures/winter_pool.json",
    "--indicator", "feb_temp_c", "--until", "100000", "--city", "Calgary",
]

# A child that runs the CLI module as ``python -m`` does, then reports the
# exit code and whether the collector was frozen.
RUN_AS_MAIN = """
import gc, json, runpy, sys
sys.argv = ["hostrank", *sys.argv[1:]]
try:
    runpy.run_module("hostrank.cli", run_name="__main__")
except SystemExit as exc:
    print(json.dumps({"code": exc.code, "frozen": gc.get_freeze_count()}))
"""


class TestEntryPoint:
    """``hostrank`` and ``python -m hostrank.cli`` exit through ``run()``,
    which freezes the collector after ``main()``; the real ``run()`` is only
    ever called in child processes."""

    def test_error_run_exits_3_with_one_stderr_line(self, fixtures_dir, tmp_path):
        proc = run_python(["-m", "hostrank.cli", *OVERFLOW_ARGV], tmp_path, fixtures_dir.parent)
        assert proc.returncode == EXIT_VALIDATION
        assert proc.stderr == (
            "validation error: series 'Calgary/feb_temp_c' contains non-finite values\n"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize("action, lines", [("ignore", 0), ("default", 2)])
    def test_warning_filters_decide_what_prints(self, fixtures_dir, tmp_path, action, lines):
        """``run()`` changes how a warning prints, not which ones print: ``-W``
        still selects them."""
        argv = ["screen", "winter", "--pool", "fixtures/winter_pool.json",
                "--config", "fixtures/run.json"]
        proc = run_python(
            ["-W", action, "-m", "hostrank.cli", *argv], tmp_path, fixtures_dir.parent
        )
        assert proc.returncode == EXIT_OK
        printed = proc.stderr.splitlines()
        assert len(printed) == lines
        assert all(line.startswith("warning: series '") for line in printed)

    @pytest.mark.parametrize(
        "argv", [["weights", "--config", "fixtures/run.json"], OVERFLOW_ARGV],
        ids=["weights", "forecast-overflow"],
    )
    def test_module_run_as_main_freezes_and_exits_with_mains_code(
        self, fixtures_dir, tmp_path, monkeypatch, capsys, argv
    ):
        proc = run_python(["-c", RUN_AS_MAIN, *argv], tmp_path / "child", fixtures_dir.parent)
        child = json.loads(proc.stdout.splitlines()[-1])
        assert child["frozen"] > 0

        monkeypatch.chdir(fixtures_dir.parent)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "here"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # class-ratio warnings of the forecast run
            assert child["code"] == main(argv)

    def test_main_leaves_the_collector_unfrozen(self, config_path, outdir):
        frozen = gc.get_freeze_count()
        assert main(["weights", "--config", str(config_path)]) == EXIT_OK
        assert gc.get_freeze_count() == frozen

    def test_console_script_is_run(self, fixtures_dir):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        with open(fixtures_dir.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"hostrank": "hostrank.cli:run"}
        module, _, name = scripts["hostrank"].partition(":")
        assert getattr(importlib.import_module(module), name) is run
