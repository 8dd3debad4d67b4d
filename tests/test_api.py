"""Export lists, and the contract of the package's immutable records."""

import copy
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import hostrank
from hostrank.ahp import AhpWeights, ConsistencyReport, JudgmentMatrix
from hostrank.cli import RunReport
from hostrank.combining import CombinedWeights, FeatureSelection, ImportanceRatios, TotalWeights
from hostrank.entropy import EntropyResult
from hostrank.grey import GreyModel, TimeSeries
from hostrank.indicators import (
    Category,
    DecisionMatrix,
    IndicatorHierarchy,
    IndicatorId,
    IndicatorSpec,
    Violation,
)
from hostrank.pipeline import WeightingOutputs
from hostrank.reporting import Provenance
from hostrank.selection import (
    CityProfile,
    ClimateAssessment,
    ClimateRequirement,
    Cutoff,
    FeatureScaler,
    SchemeComparison,
    SchemePlan,
    SuitabilityScore,
    SwotRecord,
)
from hostrank.sensitivity import (
    PerturbationConfig,
    QuadraticSurface,
    SensitivityReport,
    SurfaceExtrema,
)

# The package and every module of it that declares an export list.
EXPORTING = [hostrank] + [
    module
    for info in pkgutil.iter_modules(hostrank.__path__)
    if hasattr(module := importlib.import_module(f"hostrank.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves_once(module):
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(module, name)] == []


A1 = IndicatorId(Category.ECONOMY, 1)
A2 = IndicatorId(Category.ECONOMY, 2)
OSLO = CityProfile("Oslo", "NO", 1.5, 2.5)
PLAN = SchemePlan("P1", "compact", {A1: 3})

# Each converted record: the arguments of a sample, and of one that differs
# from it in the first field.
SAMPLES = {
    JudgmentMatrix: (([[1.0]],), ([[2.0]],)),
    ConsistencyReport: ((3.0, 0.0, 0.58, 0.0, True), (3.1, 0.05, 0.58, 0.0862, True)),
    AhpWeights: (
        ({Category.ECONOMY: 1.0}, {A1: 1.0}, {}), ({Category.ECONOMY: 0.5}, {A1: 1.0}, {})
    ),
    RunReport: (
        (Provenance("abc", 0, "0.1.0", "weights"), {"total.csv": "x\n"}, ["done"]),
        (Provenance("abc", 1, "0.1.0", "weights"), {"total.csv": "x\n"}, ["done"]),
    ),
    ImportanceRatios: (([1.5], (0, 1)), ([2.0], (0, 1))),
    CombinedWeights: (([0.75, 0.25], (0, 1)), ([0.5, 0.5], (0, 1))),
    TotalWeights: (((A1,), [1.0]), ((A2,), [1.0])),
    FeatureSelection: (((A1,), [1.0], 0.4), ((A2,), [1.0], 0.4)),
    EntropyResult: (([0.5], [0.25], [1.0]), ([0.75], [0.25], [1.0])),
    TimeSeries: (("Oslo/feb_snow_cm", 2000, [1.0, 2.0]), ("Oslo/feb_temp_c", 2000, [1.0, 2.0])),
    GreyModel: (
        (0.1, 2.0, TimeSeries("s", 2000, [1.0]), (0.1, 2.0), True),
        (0.2, 2.0, TimeSeries("s", 2000, [1.0]), (0.2, 2.0), True),
    ),
    IndicatorId: ((Category.ECONOMY, 5), (Category.HUMAN, 5)),
    Violation: (("specs", "duplicate", "A1 twice"), ("primary_weights", "weight-sum", "sum 2")),
    IndicatorHierarchy: (
        ((IndicatorSpec(A1, "gdp"),), {Category.ECONOMY: 1.0}, True),
        ((IndicatorSpec(A2, "gdp"),), {Category.ECONOMY: 1.0}, True),
    ),
    DecisionMatrix: ((("Oslo",), (A1,), [[1.0]]), (("Bergen",), (A1,), [[1.0]])),
    WeightingOutputs: (
        ("hierarchy", "matrix", "ahp", [[1.0]], "entropy", {}, "total", "selection"),
        ("other", "matrix", "ahp", [[1.0]], "entropy", {}, "total", "selection"),
    ),
    Provenance: (("abc", 7, "0.1.0", "weights"), ("abd", 7, "0.1.0", "weights")),
    CityProfile: (("Oslo", "NO", 1.5, 2.5), ("Bergen", "NO", 1.5, 2.5)),
    ClimateRequirement: ((), (-1.0,)),
    ClimateAssessment: ((OSLO, -12.0, 40.0, True, True), (OSLO, -9.0, 40.0, True, False)),
    SuitabilityScore: ((0.5, 0.25, (0.75,)), (0.25, 0.25, (0.75,))),
    SchemePlan: (("P1", "compact", {A1: 3}), ("P2", "compact", {A1: 3})),
    SchemeComparison: ((PLAN, 3.0, {A1: 3.0}), (PLAN, 5.0, {A1: 5.0})),
    SwotRecord: (("Oslo", ["fjords"], (), (), ["cost"]), ("Bergen", ["fjords"], (), (), ["cost"])),
    Cutoff: (("rank", 3.0), ("value", 3.0)),
    FeatureScaler: (((A1,), [0.0], [1.0], [False]), ((A2,), [0.0], [1.0], [False])),
    PerturbationConfig: ((7,), (8,)),
    SensitivityReport: (
        (PerturbationConfig(1), ("Oslo",), [0.5], (((A1,), (A2,)),), [[0.4]], [[0.1]],
         [[0.2]], {"Oslo": {"mean": 0.1}}),
        (PerturbationConfig(2), ("Oslo",), [0.5], (((A1,), (A2,)),), [[0.4]], [[0.1]],
         [[0.2]], {"Oslo": {"mean": 0.1}}),
    ),
    QuadraticSurface: ((1, 0.5, [1.0], [], [2.0], 1.0, 0.0), (2, 0.5, [1.0], [], [2.0], 1.0, 0.0)),
    SurfaceExtrema: (
        ([0.0], 1.0, [1.0], 2.0, 1.5, 1.0, [1.0], [0.5], 0.5),
        ([1.0], 1.0, [1.0], 2.0, 1.5, 1.0, [1.0], [0.5], 0.5),
    ),
}

# What each record gave as a frozen dataclass, written down before it became
# a plain class: its signature without annotations, the fields that equality
# and hashing use, the repr of its sample, whether the sample hashes, and the
# sample compared with the other one. Distinct arrays of several values
# compare ambiguously, as they did.
PINS = {
    JudgmentMatrix: (
        "(values)",
        ("values",),
        "JudgmentMatrix(values=array([[1.]]))",
        False,
        False,
    ),
    ConsistencyReport: (
        "(lambda_max, ci, ri, cr, passed)",
        ("lambda_max", "ci", "ri", "cr", "passed"),
        "ConsistencyReport(lambda_max=3.0, ci=0.0, ri=0.58, cr=0.0, passed=True)",
        True,
        False,
    ),
    AhpWeights: (
        "(category_weights, indicator_weights, reports)",
        ("category_weights", "indicator_weights", "reports"),
        "AhpWeights(category_weights={<Category.ECONOMY: 'A'>: 1.0}, "
        "indicator_weights={IndicatorId(category=<Category.ECONOMY: 'A'>, index=1): 1.0}, "
        "reports={})",
        False,
        False,
    ),
    RunReport: (
        "(provenance, outputs, summary)",
        ("provenance", "outputs", "summary"),
        "RunReport(provenance=Provenance(config_hash='abc', seed=0, version='0.1.0', "
        "invocation='weights'), outputs={'total.csv': 'x\\n'}, summary=['done'])",
        False,
        False,
    ),
    ImportanceRatios: (
        "(values, ordering)",
        ("values", "ordering"),
        "ImportanceRatios(values=array([1.5]), ordering=(0, 1))",
        False,
        False,
    ),
    CombinedWeights: (
        "(weights, ordering)",
        ("weights", "ordering"),
        "CombinedWeights(weights=array([0.75, 0.25]), ordering=(0, 1))",
        False,
        ValueError,
    ),
    TotalWeights: (
        "(ids, omega)",
        ("ids", "omega"),
        "TotalWeights(ids=(IndicatorId(category=<Category.ECONOMY: 'A'>, index=1),), "
        "omega=array([1.]))",
        False,
        False,
    ),
    FeatureSelection: (
        "(ids, gamma, coverage)",
        ("ids", "gamma", "coverage"),
        "FeatureSelection(ids=(IndicatorId(category=<Category.ECONOMY: 'A'>, index=1),), "
        "gamma=array([1.]), coverage=0.4)",
        False,
        False,
    ),
    EntropyResult: (
        "(probabilities, entropies, weights)",
        ("probabilities", "entropies", "weights"),
        "EntropyResult(probabilities=array([0.5]), entropies=array([0.25]), "
        "weights=array([1.]))",
        False,
        False,
    ),
    TimeSeries: (
        "(label, start_period, values)",
        ("label", "start_period", "values"),
        "TimeSeries(label='Oslo/feb_snow_cm', start_period=2000, values=array([1., 2.]))",
        False,
        False,
    ),
    GreyModel: (
        "(alpha, mu, source, midpoint_coefficients, class_ratio_ok)",
        ("alpha", "mu", "source", "midpoint_coefficients", "class_ratio_ok"),
        "GreyModel(alpha=0.1, mu=2.0, source=TimeSeries(label='s', start_period=2000, "
        "values=array([1.])), midpoint_coefficients=(0.1, 2.0), class_ratio_ok=True)",
        False,
        False,
    ),
    IndicatorId: (
        "(category, index)",
        ("category", "index"),
        "IndicatorId(category=<Category.ECONOMY: 'A'>, index=5)",
        True,
        False,
    ),
    Violation: (
        "(field, rule, message)",
        ("field", "rule", "message"),
        "Violation(field='specs', rule='duplicate', message='A1 twice')",
        True,
        False,
    ),
    IndicatorHierarchy: (
        "(specs, primary_weights, reduced=False)",
        ("specs", "primary_weights", "reduced"),
        "IndicatorHierarchy(specs=(IndicatorSpec(id=IndicatorId(category=<Category.ECONOMY: 'A'>, "
        "index=1), name='gdp', polarity=<Polarity.POSITIVE: '+'>, ideal_interval=None),), "
        "primary_weights={<Category.ECONOMY: 'A'>: 1.0}, reduced=True)",
        False,
        False,
    ),
    DecisionMatrix: (
        "(rows, cols, values, units=None)",
        ("rows", "cols", "values", "units"),
        "DecisionMatrix(rows=('Oslo',), cols=(IndicatorId(category=<Category.ECONOMY: 'A'>, "
        "index=1),), values=array([[1.]]), units=None)",
        False,
        False,
    ),
    WeightingOutputs: (
        "(hierarchy, matrix, ahp, normalized, entropy, per_category, total, selection)",
        (
            "hierarchy", "matrix", "ahp", "normalized", "entropy", "per_category", "total",
            "selection",
        ),
        "WeightingOutputs(hierarchy='hierarchy', matrix='matrix', ahp='ahp', "
        "normalized=[[1.0]], entropy='entropy', per_category={}, total='total', "
        "selection='selection')",
        False,
        False,
    ),
    Provenance: (
        "(config_hash, seed, version, invocation)",
        ("config_hash", "seed", "version", "invocation"),
        "Provenance(config_hash='abc', seed=7, version='0.1.0', invocation='weights')",
        True,
        False,
    ),
    CityProfile: (
        # A frozen dataclass printed these two defaults as <factory>; each
        # instance still gets a fresh dict.
        "(name, country, gdp, sports_score, climate={}, indicators={})",
        ("name", "country", "gdp", "sports_score", "climate", "indicators"),
        "CityProfile(name='Oslo', country='NO', gdp=1.5, sports_score=2.5, climate={}, "
        "indicators={})",
        False,
        False,
    ),
    ClimateRequirement: (
        "(max_feb_temp=0.0, ideal_temp_range=(-17.0, -10.0), min_feb_snow=30.0)",
        ("max_feb_temp", "ideal_temp_range", "min_feb_snow"),
        "ClimateRequirement(max_feb_temp=0.0, ideal_temp_range=(-17.0, -10.0), "
        "min_feb_snow=30.0)",
        True,
        False,
    ),
    ClimateAssessment: (
        "(city, feb_temp, feb_snow, passed, ideal)",
        ("city", "feb_temp", "feb_snow", "passed", "ideal"),
        "ClimateAssessment(city=CityProfile(name='Oslo', country='NO', gdp=1.5, "
        "sports_score=2.5, climate={}, indicators={}), feb_temp=-12.0, feb_snow=40.0, "
        "passed=True, ideal=True)",
        False,
        False,
    ),
    SuitabilityScore: (
        "(s_base, s_evaluate, scaled=())",
        ("s_base", "s_evaluate", "scaled", "total"),
        "SuitabilityScore(s_base=0.5, s_evaluate=0.25, scaled=(0.75,), total=0.75)",
        True,
        False,
    ),
    SchemePlan: (
        "(id, description, impacts)",
        ("id", "description", "impacts"),
        "SchemePlan(id='P1', description='compact', "
        "impacts={IndicatorId(category=<Category.ECONOMY: 'A'>, "
        "index=1): <ImpactScale.SLIGHTLY_FAVORABLE: 3>})",
        False,
        False,
    ),
    SchemeComparison: (
        "(plan, aggregate, contributions)",
        ("plan", "aggregate", "contributions"),
        "SchemeComparison(plan=SchemePlan(id='P1', description='compact', "
        "impacts={IndicatorId(category=<Category.ECONOMY: 'A'>, "
        "index=1): <ImpactScale.SLIGHTLY_FAVORABLE: 3>}), aggregate=3.0, "
        "contributions={IndicatorId(category=<Category.ECONOMY: 'A'>, index=1): 3.0})",
        False,
        False,
    ),
    SwotRecord: (
        "(city, strengths=(), weaknesses=(), opportunities=(), threats=())",
        ("city", "strengths", "weaknesses", "opportunities", "threats"),
        "SwotRecord(city='Oslo', strengths=('fjords',), weaknesses=(), opportunities=(), "
        "threats=('cost',))",
        True,
        False,
    ),
    Cutoff: (
        "(kind, amount)",
        ("kind", "amount"),
        "Cutoff(kind='rank', amount=3.0)",
        True,
        False,
    ),
    FeatureScaler: (
        "(ids, mins, maxs, flip)",
        ("ids", "mins", "maxs", "flip"),
        "FeatureScaler(ids=(IndicatorId(category=<Category.ECONOMY: 'A'>, index=1),), "
        "mins=array([0.]), maxs=array([1.]), flip=array([False]))",
        False,
        False,
    ),
    PerturbationConfig: (
        "(seed, n_swap=5, trials=1)",
        ("seed", "n_swap", "trials"),
        "PerturbationConfig(seed=7, n_swap=5, trials=1)",
        True,
        False,
    ),
    SensitivityReport: (
        "(config, alternatives, baseline, trials, chi, abs_dev, rel_dev, summary)",
        (
            "config", "alternatives", "baseline", "trials", "chi", "abs_dev", "rel_dev",
            "summary",
        ),
        "SensitivityReport(config=PerturbationConfig(seed=1, n_swap=5, trials=1), "
        "alternatives=('Oslo',), baseline=[0.5], "
        "trials=(((IndicatorId(category=<Category.ECONOMY: 'A'>, index=1),), "
        "(IndicatorId(category=<Category.ECONOMY: 'A'>, index=2),)),), chi=[[0.4]], "
        "abs_dev=[[0.1]], rel_dev=[[0.2]], summary={'Oslo': {'mean': 0.1}})",
        False,
        False,
    ),
    QuadraticSurface: (
        "(factor_count, intercept, linear, interactions, squares, r_squared, residual_norm)",
        (
            "factor_count", "intercept", "linear", "interactions", "squares", "r_squared",
            "residual_norm",
        ),
        "QuadraticSurface(factor_count=1, intercept=0.5, linear=array([1.]), "
        "interactions=array([], dtype=float64), squares=array([2.]), r_squared=1.0, "
        "residual_norm=0.0)",
        False,
        False,
    ),
    SurfaceExtrema: (
        "(min_point, min_value, max_point, max_value, baseline, span, per_factor_span, "
        "per_factor_range, joint_range)",
        (
            "min_point", "min_value", "max_point", "max_value", "baseline", "span",
            "per_factor_span", "per_factor_range", "joint_range",
        ),
        "SurfaceExtrema(min_point=array([0.]), min_value=1.0, max_point=array([1.]), "
        "max_value=2.0, baseline=1.5, span=1.0, per_factor_span=array([1.]), "
        "per_factor_range=array([0.5]), joint_range=0.5)",
        False,
        False,
    ),
}


@pytest.mark.parametrize("cls", SAMPLES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_signature(self, cls):
        sig = inspect.signature(cls)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        assert str(sig.replace(parameters=params, return_annotation=sig.empty)) == PINS[cls][0]

    def test_repr(self, cls):
        assert repr(cls(*SAMPLES[cls][0])) == PINS[cls][2]

    def test_equality_and_hash(self, cls):
        args, other_args = SAMPLES[cls]
        _, fields, _, hashable, unequal = PINS[cls]
        sample, other = cls(*args), cls(*other_args)
        assert sample == copy.copy(sample)
        assert sample.__eq__(object()) is NotImplemented
        if unequal is ValueError:
            with pytest.raises(ValueError, match="ambiguous"):
                sample == other
        else:
            assert (sample == other) is unequal
        if hashable:
            assert cls(*args) == sample
            assert hash(cls(*args)) == hash(sample) != hash(other)
            if cls is not IndicatorId:  # which hashes its category letter and index
                assert hash(sample) == hash(tuple(getattr(sample, f) for f in fields))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(sample)

    def test_no_field_can_be_assigned_or_deleted(self, cls):
        sample = cls(*SAMPLES[cls][0])
        first = PINS[cls][1][0]
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{first}'$"):
            setattr(sample, first, None)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{first}'$"):
            delattr(sample, first)
        with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
            sample.extra = None


def test_indicator_ids_order_by_category_then_index():
    a5, b1 = IndicatorId(Category.ECONOMY, 5), IndicatorId(Category.HUMAN, 1)
    assert a5 < b1 and a5 <= b1 and b1 > a5 and b1 >= a5
    assert a5 <= copy.copy(a5) and a5 >= copy.copy(a5) and not a5 < copy.copy(a5)
    with pytest.raises(TypeError, match="not supported"):
        a5 < "B1"


def test_importing_the_cli_makes_only_two_dataclasses():
    """Every module loads with the CLI, and only RunConfig and IndicatorSpec are dataclasses.

    ``@dataclass`` compiles each generated method at import; the other
    records are plain classes so that short runs do not pay for it.
    """
    script = textwrap.dedent(
        """
        import dataclasses, inspect, json, pkgutil, sys
        import hostrank.cli
        names = [f"hostrank.{info.name}" for info in pkgutil.iter_modules(hostrank.__path__)]
        print(json.dumps({
            "not_imported": [name for name in names if name not in sys.modules],
            "dataclasses": sorted(
                f"{name}.{attr}"
                for name in names if name in sys.modules
                for attr, value in vars(sys.modules[name]).items()
                if inspect.isclass(value) and value.__module__ == name
                and dataclasses.is_dataclass(value)
            ),
        }))
        """
    )
    src = str(Path(hostrank.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=60,
    )
    found = json.loads(result.stdout)
    assert found["not_imported"] == []
    assert found["dataclasses"] == ["hostrank.cli.RunConfig", "hostrank.indicators.IndicatorSpec"]
