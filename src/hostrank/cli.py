"""Batch command-line front end.

Subcommands: weights, evaluate, forecast, screen (winter|summer),
compare-schemes, sensitivity, rsm. Every run loads one JSON
configuration file and calls one handler, which reads only the inputs
its stage uses and returns the stage's tables; ``_report`` renders each
under the run's one provenance header. Files are written only after the
stage has succeeded, and then all or none: each goes to a temporary
name in the output directory and is renamed into place once every one
is written. A failing run replaces no file, and files the stage does
not write are never touched.

Exit codes: 0 success, 2 configuration errors (including bad flags and
an output directory or output file that cannot be created or written),
3 data-validation errors (including an empty candidate pool), 4 numeric
errors.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import math
import os
import sys
import warnings
from pathlib import Path
from typing import IO, Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__
from ._record import Record
from .ahp import ahp_weights
from .combining import score_rows
from .dataio import (
    load_climate_csv,
    load_judgments,
    load_plans,
    load_pool,
    load_requirement,
    load_swot,
    merge_climate,
)
from .entropy import entropy_weights, positivize_matrix, vector_normalize
from .errors import ConfigError, NumericError, ValidationError
from .grey import forecast_indicator
from .indicators import (
    _FLAG,
    _INTEGER,
    _OBJECT,
    _STRINGS,
    DecisionMatrix,
    IndicatorHierarchy,
    IndicatorId,
    _brief,
    _expect,
    _json_loads,
    _reading,
    load_decision_matrix,
    load_hierarchy,
)
from .pipeline import WeightingOutputs, compute_weights, evaluate_alternatives
from .reporting import Provenance, format_number, hash_bytes, render_table
from .selection import (
    FEB_SNOW,
    FEB_TEMP,
    CityProfile,
    ClimateRequirement,
    FeatureScaler,
    compare_schemes,
    rank_cities,
    score_cities,
    screen_candidates,
    swot_report,
    winter_climate_filter,
)
from .sensitivity import (
    PerturbationConfig,
    factor_substitution,
    fit_response_surface,
    surface_extrema,
)

__all__ = ["RunConfig", "RunReport", "main"]

OUTPUT_DIR_ENV = "HOSTRANK_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERIC = 4

# The most grid points rsm evaluates, rows forecast writes and (trial, alternative) rows
# sensitivity writes; past them a run is refused. 2,000,000 is 1e5 alternatives x 20 trials.
_MAX_GRID_POINTS = 1_000_000
_MAX_FORECAST_ROWS = 1_000_000
_MAX_SENSITIVITY_ROWS = 2_000_000

_PATH_KEYS = ("hierarchy", "judgments", "decision_matrix", "pool", "plans", "swot", "climate")


def _is_number(value: Any) -> bool:
    return (type(value) is float and math.isfinite(value)) or _INTEGER[1](value)


# Rules for config values only, beside the JSON rules of ``indicators``: a
# config number must be finite, and a config string non-empty.
_NAME = ("a non-empty string", lambda v: type(v) is str and v != "")
_COUNT = ("an integer >= 0", lambda v: _INTEGER[1](v) and v >= 0)
_RANK = ("an integer >= 1", lambda v: _INTEGER[1](v) and v >= 1)
_FINITE = ("a number", _is_number)
_SHARE = ("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1)
_SPAN = ("a number in [0, 1)", lambda v: _is_number(v) and 0 <= v < 1)
_PAIR = ("a pair of numbers", lambda v: type(v) is list and len(v) == 2 and all(map(_is_number, v)))
_MODE = ('"per_category" or "global"', lambda v: v in ("per_category", "global"))
_SCORES = ("an object of numbers", lambda v: type(v) is dict and all(map(_is_number, v.values())))

# ClimateRequirement owns the defaults of these keys.
_REQUIREMENT = "screen.winter.requirement"
_REQUIREMENT_KEYS = {"max_feb_temp": _FINITE, "ideal_temp_range": _PAIR, "min_feb_snow": _FINITE}

# RunConfig's settings: (field, config key, value when the key is absent or null, rule).
# A stage-1 rank of None keeps the whole pool. An rsm span of 1 or more gives a
# box with zero or negative feature weights; a span of 0 is kept: it collapses
# the design, which the fit reports.
_SETTINGS = (
    ("seed", "seed", 0, _COUNT),
    ("output_dir", "output_dir", Path("out"), _NAME),
    ("weighting_mode", "weighting.mode", "per_category", _MODE),
    ("feature_count", "weighting.feature_count", 10, _RANK),
    ("coverage_target", "weighting.coverage_target", None, _SHARE),
    ("impute_missing", "ingestion.impute_missing", False, _FLAG),
    ("stage1_gdp_rank", "screen.stage1.gdp_rank", None, _RANK),
    ("stage1_sports_rank", "screen.stage1.sports_rank", None, _RANK),
    ("winter_until", "screen.winter.until", 2050, _INTEGER),
    ("winter_exclude", "screen.winter.exclude", (), _STRINGS),
    ("winter_s_base", "screen.winter.s_base", {}, _SCORES),
    ("winter_default_s_base", "screen.winter.default_s_base", None, _FINITE),
    ("summer_sports_rank", "screen.summer.sports_rank", 8, _RANK),
    ("summer_s_base", "screen.summer.s_base", {}, _SCORES),
    ("summer_default_s_base", "screen.summer.default_s_base", 0.5, _FINITE),
    ("trials", "sensitivity.trials", 20, _RANK),
    ("n_swap", "sensitivity.n_swap", 5, _COUNT),
    ("rsm_baseline", "rsm.baseline_alternative", None, _NAME),
    ("rsm_span", "rsm.span", 0.5, _SPAN),
)


def _input_file(path: Path, missing: str) -> Path:
    """``path``, if it names a file; else a ConfigError: ``missing`` and the path."""
    with _reading(path):
        if path.is_file():
            return path
    raise ConfigError(f"{missing}: {_brief(str(path))}")


def _checked(doc: dict, key: str, default: Any, rule: tuple[str, Callable[[Any], bool]]) -> Any:
    """The value at dotted ``key``, or ``default`` when it or a block above it is absent or null."""
    value: Any = doc
    parts = key.split(".")
    try:
        for depth, part in enumerate(parts):
            value = _expect(value, _OBJECT, f"config key {'.'.join(parts[:depth])!r}").get(part)
            if value is None:
                return default
        return _expect(value, rule, f"config key {key!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _at_most(name: str, value: int, limit: int, scope: str) -> None:
    """Refuse a size ``value`` past ``limit``, the cap for ``scope``, set by ``name``."""
    if value > limit:
        raise ConfigError(f"{name} must be at most {limit} for {scope}, got {_brief(value)}")


class RunConfig(Record):
    """One run configuration, read and checked whole by ``load``.

    ``inputs`` maps the input keys the file sets to their paths. Every
    other setting, given by keyword, is a row of ``_SETTINGS``, which
    names its config key and its default.
    """

    _fields = ("config_hash", "winter_requirement", "inputs", *(row[0] for row in _SETTINGS))

    def __init__(
        self,
        config_hash: str,
        winter_requirement: ClimateRequirement,
        inputs: Mapping[str, Path],
        **settings: Any,
    ) -> None:
        values = {name: settings.pop(name, default) for name, _, default, _ in _SETTINGS}
        if settings:
            raise TypeError(f"RunConfig got unknown settings: {', '.join(settings)}")
        self.__dict__.update(
            values, config_hash=config_hash, winter_requirement=winter_requirement, inputs=inputs
        )

    @classmethod
    def load(cls, path: str | Path) -> RunConfig:
        p = _input_file(Path(path), "config file not found")
        with _reading(p):
            data = p.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"config file {_brief(str(p))} is not UTF-8 text (byte {exc.start})"
            ) from None
        try:
            raw = _json_loads(text.removeprefix("\ufeff"))
        except ValueError as exc:  # bad JSON, an integer of over 4,300 digits
            raise ConfigError(f"config file {_brief(str(p))} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        values = {name: _checked(raw, *row) for name, *row in _SETTINGS}
        block = _checked(raw, _REQUIREMENT, {}, _OBJECT)
        for key in block:
            if key not in _REQUIREMENT_KEYS:
                name, known = _brief(f"{_REQUIREMENT}.{key}"), ", ".join(_REQUIREMENT_KEYS)
                raise ConfigError(f"config key {name} is not one of {known}")
        for key, rule in _REQUIREMENT_KEYS.items():
            _checked(raw, f"{_REQUIREMENT}.{key}", None, rule)
        requirement = load_requirement(block)
        # Inputs resolve against the config file, unless absolute; the output directory
        # is working-directory relative so runs stay out of the fixture tree.
        inputs = {}
        for key in _PATH_KEYS:
            value = _checked(raw, key, None, _NAME)
            if value is not None:
                inputs[key] = _input_file(p.parent / value, f"config key {key!r} names no file")
        values["output_dir"] = Path(os.environ.get(OUTPUT_DIR_ENV) or values["output_dir"])
        return cls(hash_bytes(data), requirement, inputs, **values)

    def input_path(self, key: str, override: str | None = None) -> Path:
        """The input file named by a command-line ``override``, else by the config."""
        if override is not None:
            return _input_file(Path(override), f"{key} file not found")
        if key not in self.inputs:
            raise ConfigError(f"config key {key!r} is required for this subcommand")
        return self.inputs[key]


class RunReport(Record):
    """Stage outputs held in memory until the stage has fully succeeded."""

    _fields = ("provenance", "outputs", "summary")

    def write(self, outdir: Path) -> list[Path]:
        """Write every output or none; return the final paths in output order."""
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {_brief(str(outdir))}: {exc.strerror or exc}"
            ) from None
        targets = [outdir / name for name in self.outputs]
        temps: list[Path] = []
        try:
            for target in targets:  # a path too long to check fails here, as a write
                if target.exists() and not target.is_file():
                    raise ConfigError(
                        f"cannot write {_brief(str(target))}: it exists and is not a regular file"
                    )
            for target, content in zip(targets, self.outputs.values()):
                temps.append(target.with_name(f".{target.name}.{os.getpid()}.tmp"))
                temps[-1].write_text(content, encoding="utf-8")
            for temp, target in zip(temps, targets):
                os.replace(temp, target)
        except OSError as exc:
            for temp in temps:
                temp.unlink(missing_ok=True)
            raise ConfigError(
                f"cannot write {_brief(str(target))}: {exc.strerror or exc}"
            ) from None
        return targets


# An output table: (columns, rows) for render_table, or preformatted text.
Table = tuple[Sequence[str], Sequence[Sequence]] | str


def _report(
    cfg: RunConfig,
    invocation: str,
    tables: Mapping[str, Table],
    summary: list[str],
    seed: int | None = None,
) -> RunReport:
    """Render a stage's tables, in order, each under the run's one provenance header."""
    prov = Provenance(
        config_hash=cfg.config_hash,
        seed=cfg.seed if seed is None else seed,
        version=__version__,
        invocation=invocation,
    )
    header = "\n".join(prov.header_lines()) + "\n"
    outputs = {
        name: header + table if isinstance(table, str) else render_table(*table, prov)
        for name, table in tables.items()
    }
    return RunReport(prov, outputs, summary)


def _load_matrix(cfg: RunConfig, hierarchy: IndicatorHierarchy) -> DecisionMatrix:
    path = cfg.input_path("decision_matrix")
    return load_decision_matrix(path, hierarchy, impute_missing=cfg.impute_missing)


def _weighting(cfg: RunConfig, feature_count: int | None = None) -> WeightingOutputs:
    """The weighting chain; ``feature_count`` overrides the config's, a coverage target both."""
    hierarchy = load_hierarchy(cfg.input_path("hierarchy"))
    # The count is bounded by the indicators, known once the hierarchy is read.
    count = cfg.feature_count if feature_count is None else feature_count
    if not 1 <= count <= len(hierarchy.ids):
        name = "config key 'weighting.feature_count'" if feature_count is None else "--features"
        raise ConfigError(f"{name} must be in 1..{len(hierarchy.ids)}, got {_brief(count)}")
    return compute_weights(
        hierarchy,
        load_judgments(cfg.input_path("judgments")),
        _load_matrix(cfg, hierarchy),
        mode=cfg.weighting_mode,
        feature_count=count,
        coverage_target=cfg.coverage_target,
    )


def _load_cities(cfg: RunConfig, pool_path: str | None) -> list[CityProfile]:
    cities = load_pool(cfg.input_path("pool", pool_path))
    if not cities:
        raise ValidationError("candidate pool is empty")
    if "climate" in cfg.inputs:
        cities = merge_climate(cities, load_climate_csv(cfg.inputs["climate"]))
    return cities


def _features_table(w: WeightingOutputs) -> Table:
    rows = []
    acc = 0.0
    omega = w.total.by_id()
    for rank, (ind, g) in enumerate(zip(w.selection.ids, w.selection.gamma), start=1):
        acc += omega[ind]
        rows.append((rank, ind, g, omega[ind], acc))
    return ["rank", "indicator", "gamma", "omega", "cumulative_omega"], rows


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (invocation, tables, summary) for
# ``_report``, and sensitivity also the seed it ran with.


def _ahp_tables(subjective) -> dict[str, Table]:
    return {
        "ahp_categories.csv": (
            ["category", "weight"],
            [(c.value, v) for c, v in subjective.category_weights.items()],
        ),
        "ahp_indicators.csv": (
            ["indicator", "weight"],
            list(subjective.indicator_weights.items()),
        ),
        "ahp_consistency.csv": (
            ["matrix", "lambda_max", "ci", "ri", "cr", "passed"],
            [
                (key, r.lambda_max, r.ci, r.ri, r.cr, r.passed)
                for key, r in subjective.reports.items()
            ],
        ),
    }


def _entropy_table(cols, ent) -> Table:
    return ["indicator", "entropy", "weight"], list(zip(cols, ent.entropies, ent.weights))


def _cmd_weights(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    """Each method reads only its own inputs: ahp no matrix, entropy no judgments."""
    if args.method == "ahp":
        hierarchy = load_hierarchy(cfg.input_path("hierarchy"))
        subjective = ahp_weights(hierarchy, load_judgments(cfg.input_path("judgments")))
        tables = _ahp_tables(subjective)
        u_sum = sum(subjective.category_weights.values())
        summary = [f"subjective category weights sum: {format_number(u_sum)}"]
    elif args.method == "entropy":
        hierarchy = load_hierarchy(cfg.input_path("hierarchy"))
        matrix = _load_matrix(cfg, hierarchy)
        ent = entropy_weights(vector_normalize(positivize_matrix(matrix, hierarchy)))
        tables = {"entropy.csv": _entropy_table(matrix.cols, ent)}
        summary = [f"entropy weights sum: {format_number(ent.weights.sum())}"]
    else:  # combined
        w = _weighting(cfg)
        tables = _ahp_tables(w.ahp)
        tables["entropy.csv"] = _entropy_table(w.matrix.cols, w.entropy)
        combined_rows = []
        for cat, cw in w.per_category.items():
            for spec, weight in zip(w.hierarchy.by_category(cat), cw.weights):
                combined_rows.append((spec.id, cat.value, weight))
        tables["combined.csv"] = (["indicator", "category", "weight"], combined_rows)
        tables["total.csv"] = (["indicator", "omega"], list(zip(w.total.ids, w.total.omega)))
        tables["features.csv"] = _features_table(w)
        summary = [
            f"total weights sum: {format_number(w.total.omega.sum())}",
            f"feature group: {', '.join(str(i) for i in w.selection.ids)} "
            f"(coverage {format_number(w.selection.coverage)})",
        ]
    return f"weights --method {args.method}", tables, summary


def _cmd_evaluate(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    w = _weighting(cfg, feature_count=args.features)
    scores = evaluate_alternatives(w.matrix, w.hierarchy, w.selection)
    ranked = sorted(scores, key=lambda s: (-s[1], s[0]))
    tables = {
        "evaluation.csv": (
            ["rank", "alternative", "chi"],
            [(i + 1, name, val) for i, (name, val) in enumerate(ranked)],
        ),
        "features.csv": _features_table(w),
    }
    top = ranked[0]
    summary = [f"top alternative: {top[0]} (chi {format_number(top[1])})"]
    return f"evaluate --features {w.selection.k}", tables, summary


def _cmd_forecast(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    cities = _load_cities(cfg, args.pool)
    if args.city is not None:
        cities = [c for c in cities if c.name == args.city]
        if not cities:
            raise ValidationError(f"city {_brief(args.city)} not in pool")
    else:
        cities = [c for c in cities if args.indicator in c.climate]
        if not cities:
            raise ValidationError(f"no city in the pool has series {_brief(args.indicator)}")
    _check_until(cities, [args.indicator], args.until, "--until")
    starts = [c.climate[args.indicator].start_period for c in cities if args.indicator in c.climate]
    # A series gives until - start + 1 rows: limit is the last until within the cap.
    limit = (_MAX_FORECAST_ROWS + sum(starts) - len(starts)) // max(len(starts), 1)
    if starts:
        _at_most("--until", args.until, limit, f"{len(starts)} series ({_MAX_FORECAST_ROWS} rows)")
    rows = []
    for city in cities:
        history_len = len(city.climate[args.indicator]) if args.indicator in city.climate else 0
        series = forecast_indicator(city, args.indicator, args.until)
        for offset, (period, value) in enumerate(zip(series.periods, series.values)):
            rows.append((city.name, period, value, offset >= history_len))
    tables = {"forecast.csv": (["city", "period", "value", "forecast"], rows)}
    summary = [f"forecast {args.indicator} to {args.until} for {len(cities)} cities"]
    return f"forecast --indicator {args.indicator} --until {args.until}", tables, summary


def _check_until(
    cities: Sequence[CityProfile], names: Sequence[str], until: int, source: str
) -> None:
    """Reject an ``until``, set by ``source``, before the end of a series it forecasts."""
    for city in cities:
        for name in names:
            series = city.climate.get(name)
            if series is not None and until < series.last_period:
                raise ValidationError(
                    f"{source} = {_brief(until)} precedes the last observation of "
                    f"{_brief(series.label)} ({series.last_period})"
                )


def _winter_candidates(
    cfg: RunConfig, pool: list[CityProfile], cities: list[CityProfile]
) -> tuple[list[CityProfile], dict[str, Table], list[str]]:
    """Drop excluded cities, then keep those passing the climate gate.

    ``cities`` are the stage-1 survivors of ``pool``; the exclusion list
    is checked against the whole pool.
    """
    excluded = set(cfg.winter_exclude)
    unknown = excluded - {c.name for c in pool}
    if unknown:
        names = [_brief(name) for name in sorted(unknown)]
        # The first three names, or as many as fit in 100 characters (at least one).
        ends = itertools.accumulate(len(name) + 2 for name in names[:3])
        shown = [name for name, end in zip(names, ends) if end <= 102] or names[:1]
        more = f", ... ({len(names)} names)" if len(shown) < len(names) else ""
        warnings.warn(f"exclusion list names absent from the pool: [{', '.join(shown)}{more}]")
    candidates = [c for c in cities if c.name not in excluded]
    if not candidates:
        who = "stage-1 survivor" if len(cities) < len(pool) else "pool city"
        raise ValidationError(f"every {who} is excluded")

    _check_until(
        candidates, (FEB_TEMP, FEB_SNOW), cfg.winter_until, "config key 'screen.winter.until'"
    )
    assessments = winter_climate_filter(candidates, cfg.winter_requirement, cfg.winter_until)
    climate_rows = [
        (a.city.name, a.feb_temp, a.feb_snow, a.passed, a.ideal) for a in assessments
    ]
    passers = [a.city for a in assessments if a.passed]
    if not passers:
        raise ValidationError("no city passes the winter climate gate")
    table = (["city", "feb_temp_c", "feb_snow_cm", "passed", "ideal"], climate_rows)
    summary = [f"climate gate: {len(passers)}/{len(candidates)} cities pass"]
    return passers, {"winter_climate.csv": table}, summary


def _summer_candidates(
    cfg: RunConfig, cities: list[CityProfile], w: WeightingOutputs
) -> tuple[list[CityProfile], dict[str, Table], list[str]]:
    """Shortlist by sports score; indicators come from the decision matrix."""
    shortlist = screen_candidates(cities, len(cities), cfg.summer_sports_rank)
    screen_rows = [
        (i + 1, c.name, c.country, c.sports_score) for i, c in enumerate(shortlist)
    ]
    table = (["rank", "city", "country", "sports_score"], screen_rows)
    candidates = [
        CityProfile(c.name, c.country, c.gdp, c.sports_score, c.climate, w.matrix.row(c.name))
        for c in shortlist
    ]
    summary = [f"stage-1 keeps {len(cities)} cities, sports screen keeps {len(shortlist)}"]
    return candidates, {"summer_screen.csv": table}, summary


def _cmd_screen(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    season = args.season
    w = _weighting(cfg)
    pool = cities = _load_cities(cfg, args.pool)
    if cfg.stage1_gdp_rank is not None or cfg.stage1_sports_rank is not None:
        # Stage 1, the coarse GDP/sports cut; an unset rank keeps the whole pool.
        gdp_rank = cfg.stage1_gdp_rank or len(pool)
        sports_rank = cfg.stage1_sports_rank or len(pool)
        cities = screen_candidates(pool, gdp_rank, sports_rank)
        if not cities:
            raise ValidationError(
                f"stage 1 keeps no city: none is in the top {gdp_rank} by gdp "
                f"and the top {sports_rank} by sports_score"
            )
    if season == "winter":
        candidates, tables, summary = _winter_candidates(cfg, pool, cities)
        s_base, default_base = cfg.winter_s_base, cfg.winter_default_s_base
    else:
        candidates, tables, summary = _summer_candidates(cfg, cities, w)
        s_base, default_base = cfg.summer_s_base, cfg.summer_default_s_base
    scored = score_cities(
        candidates, s_base, w.selection, w.hierarchy, default_base=default_base
    )
    ranked = rank_cities(scored)
    ranking_rows = [
        (i + 1, c.name, c.country, s.s_base, s.s_evaluate, s.total)
        for i, (c, s) in enumerate(ranked)
    ]
    features = list(zip(w.selection.ids, w.selection.gamma))
    feature_rows = [
        (c.name, ind, value, g, g * value)
        for c, s in ranked
        for (ind, g), value in zip(features, s.scaled)
    ]
    tables[f"{season}_ranking.csv"] = (
        ["rank", "city", "country", "s_base", "s_evaluate", "total"],
        ranking_rows,
    )
    tables[f"{season}_features.csv"] = (
        ["city", "indicator", "scaled_value", "gamma", "contribution"],
        feature_rows,
    )
    if season == "summer" and "swot" in cfg.inputs:
        tables["swot_report.txt"] = swot_report(load_swot(cfg.inputs["swot"]))
    top_city, top_score = ranked[0]
    summary.append(
        f"top {season} host: {top_city.name} (total {format_number(top_score.total)})"
    )
    return f"screen {season}", tables, summary


def _cmd_compare_schemes(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    w = _weighting(cfg)
    plans = load_plans(cfg.input_path("plans", args.plans))
    results = compare_schemes(plans, w.selection)
    tables = {
        "schemes.csv": (
            ["rank", "plan", "aggregate", "description"],
            [
                (i + 1, r.plan.id, r.aggregate, r.plan.description)
                for i, r in enumerate(results)
            ],
        ),
        "scheme_features.csv": (
            ["plan", "indicator", "impact", "gamma", "contribution"],
            [
                # int(): Python 3.10 prints an IntEnum member by its name.
                (r.plan.id, ind, int(r.plan.impacts[ind]), g, r.contributions[ind])
                for r in results
                for ind, g in zip(w.selection.ids, w.selection.gamma)
            ],
        ),
    }
    best = results[0]
    summary = [f"best plan: {best.plan.id} (aggregate {format_number(best.aggregate)})"]
    return "compare-schemes", tables, summary


def _cmd_sensitivity(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    # Built first, so a bad --seed, --trials or --n-swap fails before any input is read.
    pconfig = PerturbationConfig(
        seed=cfg.seed if args.seed is None else args.seed,
        n_swap=cfg.n_swap if args.n_swap is None else args.n_swap,
        trials=cfg.trials if args.trials is None else args.trials,
    )
    w = _weighting(cfg)
    name = "config key 'sensitivity.trials'" if args.trials is None else "--trials"
    scope = f"{w.matrix.n} alternatives ({_MAX_SENSITIVITY_ROWS} rows)"
    _at_most(name, pconfig.trials, _MAX_SENSITIVITY_ROWS // w.matrix.n, scope)
    report = factor_substitution(w.selection, w.total, w.matrix, pconfig, w.hierarchy)
    overall = report.summary["(overall)"]
    summary = [
        f"{pconfig.trials} trials, swap size {pconfig.n_swap}",
        "deviation mean/max/std: "
        + "/".join(
            format_number(overall[k]) for k in ("mean_abs_dev", "max_abs_dev", "std_abs_dev")
        ),
    ]
    invocation = f"sensitivity --seed {pconfig.seed} --trials {pconfig.trials}"
    return invocation, {"sensitivity.csv": report.to_csv_text()}, summary, pconfig.seed


def _factor_key(token: str) -> int | IndicatorId:
    """A feature by 1-based position ('1', 'xi1', 'ξ1') or by indicator id ('A5')."""
    token = token.strip()
    lowered = token.lower()
    for prefix in ("xi", "ξ"):
        if lowered.startswith(prefix) and lowered[len(prefix) :].isdecimal():
            token = lowered[len(prefix) :]
    if token.isdecimal():
        if len(token) > 18:  # past any feature group, and int() refuses 4,300 digits
            raise ConfigError(f"factor position {_brief(token)} has more than 18 digits")
        if int(token) < 1:
            raise ConfigError(f"factor position {token} is below 1")
        return int(token)
    try:
        return IndicatorId.parse(token)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _factor_position(key: int | IndicatorId, selection) -> int:
    if isinstance(key, int):
        if not 1 <= key <= selection.k:
            raise ConfigError(f"factor position {key} outside 1..{selection.k}")
        return key - 1
    try:
        return selection.ids.index(key)
    except ValueError:
        raise ConfigError(f"factor {key} is not in the selected feature group") from None


def _cmd_rsm(cfg: RunConfig, args: argparse.Namespace) -> tuple:
    # The flags' form is checked before any input is read; positions need the selection.
    keys = [_factor_key(tok) for tok in args.factors.split(",")]
    if not 2 <= len(keys) <= 3:
        raise ConfigError("rsm expects two or three factors")
    if len(set(keys)) != len(keys):
        raise ConfigError("rsm factors must be distinct")
    if args.grid < 3:
        raise ConfigError("grid needs at least 3 levels per factor")
    limit = round(_MAX_GRID_POINTS ** (1 / len(keys)))  # 1,000,000 is 1000^2 and 100^3
    _at_most("--grid", args.grid, limit, f"{len(keys)} factors ({_MAX_GRID_POINTS} points)")
    w = _weighting(cfg)
    hierarchy, matrix = w.hierarchy, w.matrix

    positions = [_factor_position(key, w.selection) for key in keys]
    if len(set(positions)) != len(positions):
        raise ConfigError("rsm factors must be distinct")

    baseline_name = cfg.rsm_baseline or matrix.rows[0]
    if baseline_name not in matrix.rows:
        raise ConfigError(
            f"baseline alternative {_brief(baseline_name)} not in the decision matrix"
        )
    columns = [matrix.cols.index(i) for i in w.selection.ids]
    scaler = FeatureScaler.from_values(matrix.values[:, columns], w.selection.ids, hierarchy)
    xi = scaler.transform_values(matrix.values[matrix.rows.index(baseline_name), columns])

    nominal = w.selection.gamma[positions]
    box = [(g * (1.0 - cfg.rsm_span), g * (1.0 + cfg.rsm_span)) for g in nominal]
    axes = [np.linspace(lo, hi, args.grid) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])

    gammas = np.tile(w.selection.gamma, (points.shape[0], 1))
    gammas[:, positions] = points
    # Scored as the substitution trials score: under weights renormalized to sum to 1.
    responses = score_rows(gammas / gammas.sum(axis=1, keepdims=True), xi)
    factor_names = [str(w.selection.ids[p]) for p in positions]
    grid_rows = [(*point, r) for point, r in zip(points, responses)]

    surface = fit_response_surface(points, responses)
    extrema = surface_extrema(surface, box)

    coef_rows = [("intercept", surface.intercept)]
    coef_rows += [(f"linear[{name}]", c) for name, c in zip(factor_names, surface.linear)]
    for (i, j), c in zip(itertools.combinations(range(len(positions)), 2), surface.interactions):
        coef_rows.append((f"interaction[{factor_names[i]}*{factor_names[j]}]", c))
    coef_rows += [(f"square[{name}]", c) for name, c in zip(factor_names, surface.squares)]
    coef_rows.append(("r_squared", surface.r_squared))

    extrema_rows = [
        ("min_value", extrema.min_value),
        ("max_value", extrema.max_value),
        ("baseline", extrema.baseline),
        ("joint_relative_range", extrema.joint_range),
    ]
    extrema_rows += [
        (f"relative_range[{name}]", r) for name, r in zip(factor_names, extrema.per_factor_range)
    ]

    tables = {
        "rsm_grid.csv": ([*factor_names, "response"], grid_rows),
        "rsm_surface.csv": (["term", "value"], coef_rows),
        "rsm_extrema.csv": (["quantity", "value"], extrema_rows),
    }
    summary = [
        f"baseline alternative: {baseline_name}",
        f"fit R^2: {format_number(surface.r_squared)}",
        "relative ranges: "
        + ", ".join(
            f"{name}={format_number(r)}"
            for name, r in zip(factor_names, extrema.per_factor_range)
        )
        + f", joint={format_number(extrema.joint_range)}",
    ]
    return f"rsm --factors {args.factors} --grid {args.grid}", tables, summary


# ---------------------------------------------------------------------------
# entry point


def _int_flag(text: str) -> int:
    """An integer flag's value; argparse's error for a bad one quotes it short."""
    try:
        return int(text)
    except ValueError:  # not an integer, or past int()'s 4,300 digits
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hostrank",
        description="Batch multi-criteria host-city evaluation pipeline",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, handler: Callable[..., tuple], **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", required=True, help="path to the run configuration JSON")
        p.set_defaults(handler=handler)
        return p

    p = add("weights", _cmd_weights, help="compute indicator weights")
    p.add_argument("--method", choices=("ahp", "entropy", "combined"), default="combined")

    p = add("evaluate", _cmd_evaluate, help="score every decision-matrix row")
    p.add_argument("--features", type=_int_flag, help="feature-group size (default: the config's)")

    p = add("forecast", _cmd_forecast, help="grey-forecast a climate series")
    p.add_argument("--pool", help="city pool file (defaults to the config's pool)")
    p.add_argument("--indicator", required=True, help="series name, e.g. feb_temp_c")
    p.add_argument("--until", type=_int_flag, required=True, help="last forecast period")
    p.add_argument("--city", help="restrict to one city")

    p = add("screen", _cmd_screen, help="run a screening pipeline")
    p.add_argument("season", choices=("winter", "summer"))
    p.add_argument("--pool", help="city pool file (defaults to the config's pool)")

    p = add(
        "compare-schemes",
        _cmd_compare_schemes,
        help="aggregate scheme impacts over the feature group",
    )
    p.add_argument("--plans", help="plans file (defaults to the config's plans)")

    p = add("sensitivity", _cmd_sensitivity, help="random feature-substitution trials")
    p.add_argument("--seed", type=_int_flag, help="RNG seed (defaults to the config seed)")
    p.add_argument("--trials", type=_int_flag, help="trial count (defaults to the config)")
    p.add_argument("--n-swap", type=_int_flag, dest="n_swap", help="features replaced per trial")

    p = add("rsm", _cmd_rsm, help="response-surface grid over feature-weight perturbations")
    p.add_argument("--factors", required=True, help="comma-separated feature ids or 1-based positions")
    p.add_argument("--grid", type=_int_flag, default=25, help="levels per factor")

    return parser


# The message label and exit code of each error type a run may raise.
_ERRORS = {
    ConfigError: ("config", EXIT_CONFIG),
    ValidationError: ("validation", EXIT_VALIDATION),
    NumericError: ("numeric", EXIT_NUMERIC),
}


def _write_lines(stream: IO[str] | None, lines: Sequence[str]) -> None:
    """Write ``lines`` to ``stream`` and flush it; lines that no stream (pythonw), a closed,
    full or broken one, or its encoding cannot take are lost, and the exit code stands.
    """
    if stream is None:
        return
    with contextlib.suppress(OSError, ValueError):  # ValueError: closed, or not encodable
        try:
            stream.write("".join(f"{line}\n" for line in lines))
            stream.flush()
        except OSError:  # closing drops what it holds, which the exit flush would retry
            stream.close()


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        report = _report(cfg, *args.handler(cfg, args))
        written = report.write(cfg.output_dir)
    except tuple(_ERRORS) as exc:
        label, code = _ERRORS[type(exc)]
        _write_lines(sys.stderr, [f"{label} error: {exc}"])
        return code

    prov = report.provenance
    stage = prov.invocation.partition(" --")[0]
    _write_lines(sys.stdout, [
        f"[{stage}] config {prov.config_hash[:12]} seed {prov.seed}",
        *(f"  {line}" for line in report.summary),
        *(f"  wrote {path}" for path in written),
    ])
    return EXIT_OK


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """``warnings.showwarning`` for the process: one ``warning: <message>`` line on stderr."""
    _write_lines(sys.stderr if file is None else file, [f"warning: {message}"])


def run() -> int:
    """The process entry point: ``main()`` on ``sys.argv``, then its exit code.

    Each warning that reaches the display prints as one ``warning:``
    line, with no source path or line; the warning filters (``-W``) are
    left as they are. stdout escapes what its encoding lacks, as stderr
    does. It freezes every object the garbage collector tracks
    (``gc.freeze``) before returning, so the collections of interpreter
    shutdown skip them; the OS frees that memory at exit anyway. ``main``
    leaves the display and the collector alone for library callers.
    """
    warnings.showwarning = _show_warning
    if hasattr(sys.stdout, "reconfigure"):  # None without a console (pythonw)
        sys.stdout.reconfigure(errors="backslashreplace")
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
