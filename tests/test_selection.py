"""Tests for screening, climate gating, scoring, ranking, schemes, and SWOT."""

import numpy as np
import pytest

from hostrank.combining import evaluate_chi
from hostrank.dataio import load_pool
from hostrank.errors import ConfigError, ValidationError
from hostrank.grey import TimeSeries
from hostrank.indicators import (
    DecisionMatrix, IndicatorHierarchy, IndicatorId, IndicatorSpec, Polarity,
)
from hostrank.pipeline import evaluate_alternatives
from hostrank.selection import (
    FEB_SNOW,
    FEB_TEMP,
    CityProfile,
    ClimateRequirement,
    FeatureScaler,
    ImpactScale,
    SchemePlan,
    SuitabilityScore,
    SwotRecord,
    compare_schemes,
    rank_cities,
    score_cities,
    screen_candidates,
    swot_report,
    winter_climate_filter,
)


def climate_city(name, temp, snow, points=4):
    """City with constant climate series at the given levels."""
    return CityProfile(
        name=name, country="X", gdp=1.0, sports_score=1.0,
        climate={
            FEB_TEMP: TimeSeries(f"{name}/t", 2015, np.full(points, float(temp))),
            FEB_SNOW: TimeSeries(f"{name}/s", 2015, np.full(points, float(snow))),
        },
    )


class TestScreenCandidates:
    def test_fixture_pool_top_45(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "world_pool.csv")
        kept = screen_candidates(pool, 45, 45)
        assert len(kept) == 45
        names = {c.name for c in kept}
        for expected in ("New York", "Beijing", "Calgary", "Oslo"):
            assert expected in names

    def test_pool_sized_ranks_keep_everything(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "world_pool.csv")
        kept = screen_candidates(pool, len(pool), len(pool))
        assert len(kept) == len(pool)

    def test_single_city_passes_rank_one(self):
        city = CityProfile(name="Solo", country="X", gdp=5.0, sports_score=10.0)
        assert screen_candidates([city], 1, 1) == [city]

    def test_overtight_cutoff_returns_empty(self):
        cities = [
            CityProfile(name="Rich", country="X", gdp=5.0, sports_score=1.0),
            CityProfile(name="Sporty", country="X", gdp=1.0, sports_score=10.0),
        ]
        assert screen_candidates(cities, 1, 1) == []

    @pytest.mark.parametrize("gdp_rank, sports_rank", [(0, 1), (1, 0), (-3, 5)])
    def test_rank_below_one_is_a_config_error(self, gdp_rank, sports_rank):
        city = CityProfile(name="Solo", country="X", gdp=5.0, sports_score=10.0)
        with pytest.raises(ConfigError, match="^rank cutoff must be at least 1$"):
            screen_candidates([city], gdp_rank, sports_rank)

    def test_duplicate_city_rejected(self):
        c = CityProfile(name="Twin", country="X", gdp=1.0, sports_score=1.0)
        with pytest.raises(ValidationError, match="duplicate city"):
            screen_candidates([c, c], 2, 2)

    def test_sorted_by_combined_rank(self):
        cities = [
            CityProfile(name="A", country="X", gdp=3.0, sports_score=1.0),
            CityProfile(name="B", country="X", gdp=2.0, sports_score=3.0),
            CityProfile(name="C", country="X", gdp=1.0, sports_score=2.0),
        ]
        kept = screen_candidates(cities, 3, 3)
        # combined ranks: A = 1+3, B = 2+1, C = 3+2
        assert [c.name for c in kept] == ["B", "A", "C"]

    def test_relaxing_cutoffs_is_monotone(self):
        """No city that passes can be lost by loosening either cutoff."""
        rng = np.random.default_rng(21)
        pool = [
            CityProfile(
                name=f"c{i}", country="X",
                gdp=float(rng.uniform(0, 10)), sports_score=float(rng.uniform(0, 100)),
            )
            for i in range(20)
        ]
        for _ in range(30):
            g1, g2 = sorted(rng.integers(1, 21, size=2))
            s1, s2 = sorted(rng.integers(1, 21, size=2))
            tight = {c.name for c in screen_candidates(pool, g1, s1)}
            loose = {c.name for c in screen_candidates(pool, g2, s2)}
            assert tight <= loose


class TestWinterClimateFilter:
    def test_threshold_straddle(self):
        req = ClimateRequirement()
        cities = [
            climate_city("JustCold", -0.1, 50.0),
            climate_city("JustWarm", +0.1, 50.0),
            climate_city("ThinSnow", -5.0, 29.0),
            climate_city("EnoughSnow", -5.0, 30.0),
            climate_city("WarmButSnowy", 1.0, 100.0),  # snow cannot rescue temperature
        ]
        flags = {a.city.name: a.passed for a in winter_climate_filter(cities, req, 2030)}
        assert flags == {
            "JustCold": True,
            "JustWarm": False,
            "ThinSnow": False,
            "EnoughSnow": True,
            "WarmButSnowy": False,
        }

    def test_ideal_band(self):
        req = ClimateRequirement()
        out = winter_climate_filter(
            [climate_city("Ideal", -12.0, 45.0), climate_city("Mild", -5.0, 45.0)],
            req,
            2030,
        )
        assert [a.ideal for a in out] == [True, False]
        assert all(a.passed for a in out)

    def test_fixture_pool_passes_three_of_nine(self, fixtures_dir):
        pool = load_pool(fixtures_dir / "winter_pool.json")
        candidates = [c for c in pool if c.name not in ("Bangkok", "Riyadh", "Jakarta")]
        with pytest.warns(UserWarning):  # near-zero temperature series trip the ratio band
            out = winter_climate_filter(candidates, ClimateRequirement(), 2050)
        passed = {a.city.name for a in out if a.passed}
        assert passed == {"Calgary", "Moscow", "Pyeongchang"}
        ideal = {a.city.name for a in out if a.ideal}
        assert ideal == {"Calgary"}

    def test_missing_series_rejected(self):
        bare = CityProfile(name="NoData", country="X", gdp=1.0, sports_score=1.0)
        with pytest.raises(ValidationError, match="no series"):
            winter_climate_filter([bare], ClimateRequirement(), 2030)

    def test_relaxing_thresholds_is_monotone(self):
        """No city that passes can be lost by loosening any threshold."""
        rng = np.random.default_rng(8)
        cities = [
            climate_city(f"c{i}", rng.uniform(-20, 5), rng.uniform(0, 60))
            for i in range(12)
        ]
        base_req = ClimateRequirement()
        base = {a.city.name for a in winter_climate_filter(cities, base_req, 2030) if a.passed}
        for _ in range(25):
            relaxed = ClimateRequirement(
                max_feb_temp=rng.uniform(0.0, 10.0),
                min_feb_snow=rng.uniform(0.0, 30.0),
            )
            now = {
                a.city.name
                for a in winter_climate_filter(cities, relaxed, 2030)
                if a.passed
            }
            assert base <= now

    def test_ideal_band_must_sit_below_cap(self):
        with pytest.raises(ValidationError, match="below the maximum"):
            ClimateRequirement(max_feb_temp=-20.0)


def _selection_of(ids_gamma):
    from hostrank.combining import FeatureSelection

    ids = tuple(IndicatorId.parse(t) for t, _ in ids_gamma)
    gamma = np.array([g for _, g in ids_gamma])
    return FeatureSelection(ids=ids, gamma=gamma, coverage=float(gamma.sum()))


class TestSuitabilityScore:
    def test_reference_score_anchors(self):
        anchors = [(0.6, 0.781, 1.381), (0.8, 0.802, 1.602), (0.8, 0.849, 1.649)]
        for base, evaluated, total in anchors:
            score = SuitabilityScore(s_base=base, s_evaluate=evaluated)
            assert score.total == pytest.approx(total, abs=1e-12)

    def test_zero_evaluation_leaves_base(self):
        assert SuitabilityScore(0.7, 0.0).total == 0.7

    def test_decomposition_is_exact(self):
        s = SuitabilityScore(0.8123456, 0.7654321)
        assert s.total == s.s_base + s.s_evaluate

    def test_scored_from_feature_values(self, hierarchy):
        sel = _selection_of([("A1", 0.6), ("A2", 0.4)])
        cities = [
            CityProfile(name="Hi", country="X", gdp=1, sports_score=1,
                        indicators={IndicatorId.parse("A1"): 10.0, IndicatorId.parse("A2"): 8.0}),
            CityProfile(name="Lo", country="X", gdp=1, sports_score=1,
                        indicators={IndicatorId.parse("A1"): 2.0, IndicatorId.parse("A2"): 4.0}),
        ]
        [(_, hi), (_, lo)] = score_cities(cities, {"Hi": 0.5, "Lo": 0.5}, sel, hierarchy)
        assert hi.s_evaluate == pytest.approx(1.0)
        assert lo.s_evaluate == pytest.approx(0.0)

    def test_missing_feature_value_rejected(self, hierarchy):
        sel = _selection_of([("A1", 0.6), ("A2", 0.4)])
        full = CityProfile(name="Full", country="X", gdp=1, sports_score=1,
                           indicators={IndicatorId.parse("A1"): 1.0, IndicatorId.parse("A2"): 2.0})
        sparse = CityProfile(name="Sparse", country="X", gdp=1, sports_score=1,
                             indicators={IndicatorId.parse("A1"): 1.0})
        with pytest.raises(ValidationError, match="Sparse.*A2"):
            FeatureScaler.fit([full, sparse], sel.ids, hierarchy)

    def test_array_path_matches_per_city_path(self, hierarchy, matrix):
        ids = matrix.cols
        cities = [
            CityProfile(name=r, country="", gdp=0, sports_score=0, indicators=matrix.row(r))
            for r in matrix.rows
        ]
        fitted = FeatureScaler.fit(cities, ids, hierarchy)
        from_array = FeatureScaler.from_values(matrix.values, ids, hierarchy)
        for name in ("mins", "maxs", "flip"):
            assert np.array_equal(getattr(fitted, name), getattr(from_array, name))
        per_city = np.array([fitted.transform(c) for c in cities])
        assert np.array_equal(from_array.transform_values(matrix.values), per_city)
        with pytest.raises(ValidationError, match="feature columns"):
            FeatureScaler.from_values(matrix.values[:, :3], ids, hierarchy)
        with pytest.raises(ValidationError, match="empty"):
            FeatureScaler.from_values(matrix.values[:0], ids, hierarchy)


def _profiles(matrix):
    return [
        CityProfile(name=r, country="", gdp=0, sports_score=0, indicators=matrix.row(r))
        for r in matrix.rows
    ]


def _negative(hierarchy, ids):
    """The hierarchy with the given indicators turned to negative polarity."""
    specs = tuple(
        IndicatorSpec(s.id, s.name, Polarity.NEGATIVE, s.ideal_interval) if s.id in ids else s
        for s in hierarchy.specs
    )
    return IndicatorHierarchy(specs=specs)


def _batch_case(case, hierarchy, matrix, selection):
    """(matrix, hierarchy) for one batch-versus-per-city comparison."""
    if case == "fixture":
        return matrix, hierarchy
    if case == "negative-polarity":
        return matrix, _negative(hierarchy, {selection.ids[0], selection.ids[3]})
    if case == "zero-span":
        values = matrix.values.copy()
        values[:, matrix.cols.index(selection.ids[1])] = 42.0
        return DecisionMatrix(rows=matrix.rows, cols=matrix.cols, values=values), hierarchy
    rng = np.random.default_rng(2000)
    values = np.round(rng.uniform(1.0, 100.0, size=(2000, len(matrix.cols))), 3)
    rows = tuple(f"alt-{i:04d}" for i in range(2000))
    return DecisionMatrix(rows=rows, cols=matrix.cols, values=values), hierarchy


class TestBatchedScoresMatchPerCity:
    """One scaled grid and one row-wise dot give the per-city scores exactly."""

    @pytest.mark.parametrize(
        "case", ["fixture", "negative-polarity", "zero-span", "seeded-2000"]
    )
    def test_batch_equals_per_city_reference(self, case, hierarchy, matrix, weighting):
        sel = weighting.selection
        data, h = _batch_case(case, hierarchy, matrix, sel)
        cities = _profiles(data)
        scaler = FeatureScaler.fit(cities, sel.ids, h)
        scaled = [scaler.transform(c) for c in cities]
        reference = [evaluate_chi(sel, xi) for xi in scaled]

        assert evaluate_alternatives(data, h, sel) == list(zip(data.rows, reference))
        scored = score_cities(cities, {}, sel, h, default_base=0.5)
        assert [s.s_evaluate for _, s in scored] == reference
        assert [s.scaled for _, s in scored] == [tuple(xi.tolist()) for xi in scaled]

        if case == "negative-polarity":
            j = data.cols.index(sel.ids[0])
            best = int(np.argmin(data.values[:, j]))
            assert scaled[best][0] == 1.0
        if case == "zero-span":
            assert all(xi[1] == 0.5 for xi in scaled)


class TestRankCities:
    def test_reference_ordering(self):
        scores = [
            ("Moscow", SuitabilityScore(0.6, 0.781)),
            ("Pyeongchang", SuitabilityScore(0.8, 0.802)),
            ("Calgary", SuitabilityScore(0.8, 0.849)),
        ]
        ranked = rank_cities(scores)
        assert [name for name, _ in ranked] == ["Calgary", "Pyeongchang", "Moscow"]

    def test_equal_totals_fall_back_to_alphabetical(self):
        scores = [
            ("Zurich", SuitabilityScore(0.5, 0.5)),
            ("Aarhus", SuitabilityScore(0.5, 0.5)),
        ]
        assert [n for n, _ in rank_cities(scores)] == ["Aarhus", "Zurich"]

    def test_single_entry(self):
        only = [("Solo", SuitabilityScore(0.1, 0.2))]
        assert rank_cities(only) == only

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rank_cities([])

    def test_common_base_shift_preserves_order(self):
        rng = np.random.default_rng(3)
        entries = [
            (f"c{i}", SuitabilityScore(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))))
            for i in range(8)
        ]
        shifted = [(n, SuitabilityScore(s.s_base + 0.25, s.s_evaluate)) for n, s in entries]
        assert [n for n, _ in rank_cities(entries)] == [n for n, _ in rank_cities(shifted)]

    def test_city_order_does_not_change_scores_or_ranking(self, hierarchy):
        """Scoring fans out per city and must be order-independent."""
        rng = np.random.default_rng(17)
        sel = _selection_of([("A1", 0.5), ("A5", 0.3), ("B2", 0.2)])
        cities = [
            CityProfile(
                name=f"c{i}", country="X", gdp=1, sports_score=1,
                indicators={i_: float(rng.uniform(1, 9)) for i_ in sel.ids},
            )
            for i in range(6)
        ]
        s_base = {c.name: 0.5 for c in cities}
        forward = rank_cities(score_cities(cities, s_base, sel, hierarchy))
        backward = rank_cities(score_cities(cities[::-1], s_base, sel, hierarchy))
        assert [(c.name, s.total) for c, s in forward] == [
            (c.name, s.total) for c, s in backward
        ]


class TestCompareSchemes:
    def _plans(self, sel, grades_by_plan):
        return [
            SchemePlan(
                id=pid,
                description=f"plan {pid}",
                impacts={i: g for i, g in zip(sel.ids, grades)},
            )
            for pid, grades in grades_by_plan.items()
        ]

    def test_no_effect_baseline_scores_one(self):
        sel = _selection_of([("A1", 0.5), ("B1", 0.3), ("C1", 0.2)])
        [result] = compare_schemes(self._plans(sel, {"Original": [1, 1, 1]}), sel)
        assert result.aggregate == pytest.approx(1.0, abs=1e-12)

    def test_maximal_plan_scores_nine(self):
        sel = _selection_of([("A1", 0.5), ("B1", 0.3), ("C1", 0.2)])
        [result] = compare_schemes(self._plans(sel, {"A": [9, 9, 9]}), sel)
        assert result.aggregate == pytest.approx(9.0, abs=1e-12)

    def test_single_grade_difference_is_linear(self):
        sel = _selection_of([("A1", 0.5), ("B1", 0.3), ("C1", 0.2)])
        results = compare_schemes(
            self._plans(sel, {"A": [3, 5, 5], "B": [5, 5, 5]}), sel
        )
        by_id = {r.plan.id: r.aggregate for r in results}
        assert by_id["B"] - by_id["A"] == pytest.approx(2 * 0.5, abs=1e-12)

    def test_missing_impact_rejected(self):
        sel = _selection_of([("A1", 0.5), ("B1", 0.5)])
        plan = SchemePlan(
            id="C", description="", impacts={sel.ids[0]: ImpactScale(5)}
        )
        with pytest.raises(ValidationError, match="missing B1"):
            compare_schemes([plan], sel)

    def test_extraneous_impact_rejected(self):
        sel = _selection_of([("A1", 1.0)])
        plan = SchemePlan(
            id="C",
            description="",
            impacts={sel.ids[0]: ImpactScale(5), IndicatorId.parse("E5"): ImpactScale(3)},
        )
        with pytest.raises(ValidationError, match="extraneous E5"):
            compare_schemes([plan], sel)

    def test_even_grades_rejected(self):
        with pytest.raises(ValueError):
            ImpactScale(4)

    def test_results_sorted_descending(self):
        sel = _selection_of([("A1", 0.7), ("B1", 0.3)])
        results = compare_schemes(
            self._plans(sel, {"A": [3, 3], "B": [7, 7], "C": [5, 5]}), sel
        )
        assert [r.plan.id for r in results] == ["B", "C", "A"]


class TestSwotReport:
    def test_empty_input_renders_empty_report(self):
        assert swot_report([]) == ""

    def test_entries_render_verbatim(self):
        rec = SwotRecord(
            city="Testville",
            strengths=("fast trams", "cheap venues"),
        )
        text = swot_report([rec])
        assert "== Testville ==" in text
        assert "fast trams" in text and "cheap venues" in text

    def test_four_city_fixture_renders_four_sections(self, fixtures_dir):
        from hostrank.dataio import load_swot

        records = load_swot(fixtures_dir / "swot.json")
        assert len(records) == 4
        text = swot_report(records)
        assert text.count("== ") == 4
        for rec in records:
            assert f"== {rec.city} ==" in text
