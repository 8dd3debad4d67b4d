"""Acceptance gate: every shipped guarantee, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Each check pins its tolerance here; nothing is deferred to
later calibration. Reference values that depend on inputs not shipped
with the fixtures are not asserted as golden numbers; the behavior that
produces them is covered by property checks instead (see criterion 9).
"""

import functools
import itertools
import time

import numpy as np
import pytest

from hostrank.ahp import consistency, principal_eigen, validate_judgment
from hostrank.combining import (
    ImportanceRatios,
    TotalWeights,
    order_weights,
    select_features,
    weighted_score,
)
from hostrank.entropy import entropy_weights, vector_normalize
from hostrank.grey import TimeSeries, fit_gm11
from hostrank.indicators import all_indicator_ids
from hostrank.selection import (
    ClimateRequirement,
    SuitabilityScore,
    rank_cities,
    winter_climate_filter,
)
from hostrank.sensitivity import (
    PerturbationConfig,
    factor_substitution,
    fit_response_surface,
    surface_extrema,
)
from _designs import bbd_design
from _grey_curve import predict
from test_grey import _reference_curve

# Reference feature table: ids in rank order with rounded renormalized
# weights (they sum to 1.002 due to rounding) and the captured mass.
REF_FEATURE_IDS = ["A5", "A4", "C1", "C7", "A2", "E4", "B2", "D2", "C3", "D5"]
REF_GAMMA = [0.165, 0.146, 0.132, 0.124, 0.105, 0.088, 0.082, 0.071, 0.059, 0.030]
REF_COVERAGE = 0.735

# Reference suitability anchors: (city, base score, evaluation score, total).
REF_SCORES = [
    ("Moscow", 0.6, 0.781, 1.381),
    ("Pyeongchang", 0.8, 0.802, 1.602),
    ("Calgary", 0.8, 0.849, 1.649),
]


def criterion(label):
    """Print one pass/fail line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL {label}")
                raise
            print(f"PASS {label}")
            return result

        return inner

    return wrap


@criterion("C1 feature-table reproduction")
def test_c1_feature_table_reproduction():
    started = time.perf_counter()
    gamma = np.array(REF_GAMMA)
    gamma = gamma / gamma.sum()  # strip the 3-decimal rounding residue
    feature_omega = dict(zip(REF_FEATURE_IDS, gamma * REF_COVERAGE))
    rest = [i for i in all_indicator_ids() if str(i) not in feature_omega]
    rest_each = (1.0 - REF_COVERAGE) / len(rest)
    assert rest_each < min(feature_omega.values())  # strictly smaller elsewhere
    ids = tuple(all_indicator_ids())
    tw = TotalWeights(
        ids=ids,
        omega=np.array([feature_omega.get(str(i), rest_each) for i in ids]),
    )

    sel = select_features(tw, k=10)
    assert [str(i) for i in sel.ids] == REF_FEATURE_IDS
    assert np.max(np.abs(sel.gamma - np.array(REF_GAMMA))) <= 5e-4
    assert abs(sel.coverage - REF_COVERAGE) <= 1e-3
    assert time.perf_counter() - started < 1.0


@criterion("C2 suitability score anchors")
def test_c2_score_anchors():
    started = time.perf_counter()
    scored = []
    for name, base, evaluated, total in REF_SCORES:
        score = SuitabilityScore(s_base=base, s_evaluate=evaluated)
        assert score.total == pytest.approx(total, abs=1e-12), name
        scored.append((name, score))
    ranked = [name for name, _ in rank_cities(scored)]
    assert ranked == ["Calgary", "Pyeongchang", "Moscow"]
    assert time.perf_counter() - started < 1.0


@criterion("C3 eigenvector weighting property suite")
def test_c3_ahp_property_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(314159)

    # 1000 perfectly consistent matrices: CR vanishes, weights recovered.
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        w_true = rng.uniform(1.0, 3.0, size=n)
        m = w_true[:, None] / w_true[None, :]
        jm = validate_judgment(m)
        lam, w = principal_eigen(jm)
        rep = consistency(jm, lam)
        assert rep.cr < 1e-9
        assert np.max(np.abs(w - w_true / w_true.sum())) < 1e-8

    # 1000 random reciprocal matrices: dominant eigenvalue matches a dense
    # eigensolver oracle.
    scale = np.array([1 / 9, 1 / 7, 1 / 5, 1 / 3, 1, 3, 5, 7, 9])
    for _ in range(1000):
        n = int(rng.integers(3, 10))
        m = np.ones((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.choice(scale)
                m[i, j] = v
                m[j, i] = 1.0 / v
        lam, _ = principal_eigen(validate_judgment(m))
        lam_ref = float(np.max(np.linalg.eigvals(m).real))
        assert abs(lam - lam_ref) < 1e-8

    assert time.perf_counter() - started < 30.0


@criterion("C4 entropy-weight properties")
def test_c4_entropy_properties():
    rng = np.random.default_rng(271828)

    # weights are a probability vector on 1000 random matrices
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        m = int(rng.integers(2, 11))
        data = rng.uniform(0.05, 50.0, size=(n, m))
        res = entropy_weights(vector_normalize(data))
        assert abs(res.weights.sum() - 1.0) <= 1e-9

    # a constant column always gets exactly zero weight
    for _ in range(100):
        data = rng.uniform(0.05, 50.0, size=(6, 4))
        data[:, 2] = 7.7
        res = entropy_weights(vector_normalize(data))
        assert res.weights[2] == 0.0

    # column scaling cancels in the normalization quotient
    for _ in range(200):
        data = rng.uniform(0.05, 50.0, size=(5, 4))
        scaled = data.copy()
        scaled[:, 1] *= rng.uniform(0.01, 1000.0)
        a = entropy_weights(vector_normalize(data)).weights
        b = entropy_weights(vector_normalize(scaled)).weights
        assert np.max(np.abs(a - b)) <= 1e-12


@criterion("C5 ordered-weight identity and hand example")
def test_c5_order_weight_identity():
    rng = np.random.default_rng(161803)
    for _ in range(1000):
        m = int(rng.integers(2, 31))
        ratios = ImportanceRatios(
            values=rng.uniform(1.0, 2.0, size=m - 1),
            ordering=tuple(range(m)),
        )
        w = order_weights(ratios)
        assert abs(w.weights.sum() - 1.0) <= 1e-9

    # hand recursion for ratios (1.5, 1.25): the final weight is
    # 1 / (1 + 1.5 * 1.25 + 1.25) = 8/33 and earlier weights multiply up,
    # giving (15/33, 10/33, 8/33). Matching to 1e-4.
    w = order_weights(
        ImportanceRatios(values=np.array([1.5, 1.25]), ordering=(0, 1, 2))
    )
    assert np.max(np.abs(w.weights - [15 / 33, 10 / 33, 8 / 33])) <= 1e-4
    assert abs(w.weights.sum() - 1.0) <= 1e-9


@criterion("C6 grey-model exactness on its model class")
def test_c6_grey_exactness():
    qs = np.linspace(0.7, 1.3, 25)
    for q, n in itertools.product(qs, range(4, 13)):
        series = TimeSeries("geo", 0, q ** np.arange(n))
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_gm11(series)
            out = predict(model, 4)
        expected = q ** np.arange(n + 4)
        assert np.max(np.abs(out - expected) / expected) < 1e-9
        # inverse accumulation consistency at double precision
        ref = _reference_curve(model.alpha, model.mu, float(series.values[0]), n)
        assert np.allclose(np.cumsum(out)[:n], ref, rtol=1e-12, atol=0)

    model = fit_gm11(TimeSeries("const", 0, np.full(6, 4.25)))
    assert predict(model, 5) == pytest.approx([4.25] * 11, abs=1e-12)


@criterion("C7 winter climate gate thresholds")
def test_c7_winter_gate():
    from hostrank.selection import CityProfile, FEB_SNOW, FEB_TEMP

    def city(name, temp, snow):
        return CityProfile(
            name=name, country="X", gdp=1.0, sports_score=1.0,
            climate={
                FEB_TEMP: TimeSeries(f"{name}/t", 2015, np.full(4, float(temp))),
                FEB_SNOW: TimeSeries(f"{name}/s", 2015, np.full(4, float(snow))),
            },
        )

    req = ClimateRequirement()
    cities = [
        city("TempJustBelow", -0.1, 40.0),
        city("TempJustAbove", +0.1, 40.0),
        city("SnowJustBelow", -5.0, 29.0),
        city("SnowAtMinimum", -5.0, 30.0),
    ]
    flags = {a.city.name: a.passed for a in winter_climate_filter(cities, req, 2040)}
    assert flags == {
        "TempJustBelow": True,
        "TempJustAbove": False,
        "SnowJustBelow": False,
        "SnowAtMinimum": True,
    }

    # relaxing a threshold never removes a passing city
    rng = np.random.default_rng(99)
    pool = [
        city(f"c{i}", float(rng.uniform(-20, 5)), float(rng.uniform(0, 60)))
        for i in range(15)
    ]
    base = {a.city.name for a in winter_climate_filter(pool, req, 2040) if a.passed}
    for _ in range(50):
        relaxed = ClimateRequirement(
            max_feb_temp=float(rng.uniform(0, 8)),
            min_feb_snow=float(rng.uniform(0, 30)),
        )
        now = {a.city.name for a in winter_climate_filter(pool, relaxed, 2040) if a.passed}
        assert base <= now


@criterion("C8 sensitivity determinism and design properties")
def test_c8_sensitivity_determinism(weighting):
    sel, omega = weighting.selection, weighting.total
    data, hierarchy = weighting.matrix, weighting.hierarchy

    cfg = PerturbationConfig(seed=424242, n_swap=5, trials=10)
    a = factor_substitution(sel, omega, data, cfg, hierarchy)
    b = factor_substitution(sel, omega, data, cfg, hierarchy)
    assert a.to_csv_text().encode() == b.to_csv_text().encode()

    zero = factor_substitution(
        sel, omega, data, PerturbationConfig(seed=1, n_swap=0, trials=3), hierarchy
    )
    assert zero.trials == (((), ()),) * 3
    assert zero.abs_dev.shape == (3, data.n) and np.all(zero.abs_dev == 0.0)

    for k in range(3, 8):
        for c in (1, 3):
            assert len(bbd_design(k, c)) == 4 * k * (k - 1) // 2 + c

    rng = np.random.default_rng(5)
    for _ in range(20):
        k = int(rng.integers(3, 6))
        design = bbd_design(k, center_replicates=3)
        pairs = list(itertools.combinations(range(k), 2))
        coef = rng.uniform(-3, 3, size=1 + k + len(pairs) + k)

        def quad(x):
            out = np.full(x.shape[0], coef[0])
            out += x @ coef[1 : 1 + k]
            for idx, (i, j) in enumerate(pairs):
                out += coef[1 + k + idx] * x[:, i] * x[:, j]
            out += (x**2) @ coef[1 + k + len(pairs) :]
            return out

        surface = fit_response_surface(design, quad(design))
        assert abs(surface.r_squared - 1.0) <= 1e-9


@criterion("C9 property coverage for non-golden analysis outputs")
def test_c9_property_coverage(weighting):
    """Plot-facing magnitudes (per-factor response extremes, per-plan
    aggregates) depend on analyst-supplied inputs, so they are gated by
    exactness properties rather than golden numbers."""
    from hostrank.selection import CityProfile, FeatureScaler

    sel, h, data = weighting.selection, weighting.hierarchy, weighting.matrix

    # response surfaces over feature-weight perturbations are fitted
    # exactly and their box extrema agree with a dense grid search
    profiles = [
        CityProfile(name=r, country="", gdp=0, sports_score=0, indicators=data.row(r))
        for r in data.rows
    ]
    scaler = FeatureScaler.fit(profiles, sel.ids, h)
    xi = scaler.transform(profiles[0])

    def chi_for(pts):
        gammas = np.tile(sel.gamma, (pts.shape[0], 1))
        gammas[:, 0] = pts[:, 0]
        gammas[:, 9] = pts[:, 1]
        return gammas @ xi

    g0, g9 = sel.gamma[0], sel.gamma[9]
    box = [(g0 * 0.5, g0 * 1.5), (g9 * 0.5, g9 * 1.5)]
    axes = [np.linspace(lo, hi, 5) for lo, hi in box]
    pts = np.array([[a, b] for a in axes[0] for b in axes[1]])
    surface = fit_response_surface(pts, chi_for(pts))
    assert abs(surface.r_squared - 1.0) <= 1e-9

    ext = surface_extrema(surface, box)
    dense_axes = [np.linspace(lo, hi, 1001) for lo, hi in box]
    grid = np.array(np.meshgrid(*dense_axes)).reshape(2, -1).T
    vals = surface.evaluate(grid)
    assert abs(ext.min_value - vals.min()) <= 1e-6
    assert abs(ext.max_value - vals.max()) <= 1e-6

    # scheme aggregates are linear in any single impact grade
    from hostrank.selection import ImpactScale, SchemePlan, compare_schemes

    base_grades = {i: ImpactScale(5) for i in sel.ids}
    raised = dict(base_grades)
    raised[sel.ids[0]] = ImpactScale(7)
    results = compare_schemes(
        [
            SchemePlan(id="A", description="", impacts=base_grades),
            SchemePlan(id="B", description="", impacts=raised),
        ],
        sel,
    )
    by_id = {r.plan.id: r.aggregate for r in results}
    assert by_id["B"] - by_id["A"] == pytest.approx(
        2.0 * sel.gamma[0], abs=1e-12
    )

    # the weighted evaluation score is exactly linear in its inputs
    bump = np.zeros(sel.k)
    bump[3] = 0.25
    x = np.full(sel.k, 0.5)
    assert weighted_score(sel.gamma, x + bump) - weighted_score(sel.gamma, x) == (
        pytest.approx(0.25 * sel.gamma[3], abs=1e-12)
    )
