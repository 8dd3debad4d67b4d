"""End-to-end tests of the batch front end against the shipped fixtures."""

import csv
import io
import json
import os
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
    main,
)


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

    def test_every_city_excluded_is_a_validation_error(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["exclude"] = winter_city_names(fixtures_dir)

        config = write_config(tmp_path, fixtures_dir, edit)
        assert screen_winter(config, fixtures_dir) == EXIT_VALIDATION
        assert "every pool city is excluded" in capsys.readouterr().err
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
        assert terms["r_squared"] == pytest.approx(1.0, abs=1e-9)

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


class TestErrorContract:
    def test_missing_config_is_a_config_error(self, outdir, capsys):
        assert main(["weights", "--config", "/nonexistent/run.json"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_hierarchy_is_a_validation_error_with_no_outputs(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        cfg = json.loads((fixtures_dir / "run.json").read_text())
        bad_hierarchy = json.loads((fixtures_dir / "hierarchy.json").read_text())
        bad_hierarchy["primary_weights"]["A"] = 0.05  # sums to 0.85 now
        (tmp_path / "hierarchy.json").write_text(json.dumps(bad_hierarchy))
        for key in ("judgments", "decision_matrix", "pool", "plans", "swot"):
            cfg[key] = str(fixtures_dir / cfg[key])
        cfg["hierarchy"] = str(tmp_path / "hierarchy.json")
        bad_cfg = tmp_path / "run.json"
        bad_cfg.write_text(json.dumps(cfg))

        assert main(["weights", "--config", str(bad_cfg)]) == EXIT_VALIDATION
        assert "weight-sum" in capsys.readouterr().err
        assert not outdir.exists()  # nothing was written

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
            ("text_gdp", "could not convert string to float: 'lots'"),
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
            ("hierarchy", "drop primary_weights", ["weights"], "lacks the key 'primary_weights'"),
            ("judgments", "truncate", ["weights"], "judgments file is not valid JSON"),
            ("plans", "truncate", ["compare-schemes"], "plans file is not valid JSON"),
            ("plans", "impact x", ["compare-schemes"], "bad value in plans file"),
            ("plans", "duplicate id", ["compare-schemes"], "duplicate plan id 'A'"),
            ("plans", "empty id", ["compare-schemes"], "plan id must be a non-empty string"),
            ("swot", "truncate", ["screen", "summer"], "swot file is not valid JSON"),
            ("judgments", "list root", ["weights"], "judgments file must map level names"),
            *[
                ("judgments", damage, ["weights", "--method", "ahp"],
                 "judgment matrix 'primary' is not a numeric square array")
                for damage in BAD_PRIMARY_MATRICES
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
            elif damage == "list root":
                text = "[1, 2, 3]"
            elif damage == "drop primary_weights":
                obj = json.loads(text)
                del obj["primary_weights"]
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
        assert f"{damaged} is not UTF-8 text" in err
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
        ],
    )
    def test_row_shorter_than_its_header_is_a_validation_error(
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
        assert err.startswith(f"config error: cannot write {blocker}: ")
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
        assert err == f"config error: cannot write {target}: No space left on device\n"
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

    def test_key_the_climate_requirement_lacks_is_a_config_error(
        self, tmp_path, fixtures_dir, outdir, capsys
    ):
        def edit(cfg):
            cfg["screen"]["winter"]["requirement"]["max_feb_snow"] = 40.0

        config = write_config(tmp_path, fixtures_dir, edit)
        assert main(["weights", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'screen.winter.requirement'")
        assert "'max_feb_snow'" in err and err.count("\n") == 1
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
