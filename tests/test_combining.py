"""Tests for weight combination, total weights, feature selection, and scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank.combining import (
    CombinedWeights,
    FeatureSelection,
    TotalWeights,
    dispersion,
    evaluate_chi,
    importance_ratios,
    order_weights,
    select_features,
    total_weights,
    weighted_score,
)
from hostrank.errors import ValidationError
from hostrank.indicators import (
    Category,
    IndicatorHierarchy,
    IndicatorId,
    IndicatorSpec,
    all_indicator_ids,
)

# Reference feature table used as the selection golden case: ids in rank
# order with their rounded renormalized weights. The rounded weights carry
# a rounding residue (they sum to 1.002).
REF_FEATURE_IDS = ["A5", "A4", "C1", "C7", "A2", "E4", "B2", "D2", "C3", "D5"]
REF_GAMMA = [0.165, 0.146, 0.132, 0.124, 0.105, 0.088, 0.082, 0.071, 0.059, 0.030]
REF_COVERAGE = 0.735


class TestDispersion:
    def test_constant_column_with_unit_weights(self):
        # center term is xbar * 2, so each deviation is |c - 2c| = |c|
        vals = np.full((4, 1), 7.0)
        s = dispersion(vals, [1.0], [1.0])
        assert s[0] == pytest.approx(7.0, abs=1e-12)

    def test_zero_mean_column_reduces_to_rms(self):
        col = np.array([-3.0, -1.0, 1.0, 3.0])
        s = dispersion(col[:, None], [0.4], [0.6])
        assert s[0] == pytest.approx(np.sqrt((col**2).mean()), abs=1e-12)

    def test_three_sample_fixture_matches_direct_arithmetic(self):
        vals = np.array([[1.0, 10.0], [2.0, 20.0], [6.0, 60.0]])
        h = np.array([0.3, 0.7])
        v = np.array([0.6, 0.4])
        expected = []
        for j in range(2):
            center = vals[:, j].mean() * (h[j] + v[j]) / (h[j] * v[j])
            expected.append(np.sqrt(np.mean((vals[:, j] - center) ** 2)))
        assert dispersion(vals, h, v) == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_rejected(self):
        with pytest.raises(ValidationError, match="strictly positive"):
            dispersion(np.ones((3, 2)), [0.0, 1.0], [1.0, 1.0])


class TestImportanceRatios:
    def test_ratios_at_the_cap(self):
        r = importance_ratios([4.0, 2.0, 1.0])
        assert r.values == pytest.approx([2.0, 2.0])
        assert r.ordering == (0, 1, 2)

    def test_equal_dispersions_give_unit_ratios(self):
        r = importance_ratios([1.0, 1.0, 1.0])
        assert r.values == pytest.approx([1.0, 1.0])

    def test_plain_division(self):
        r = importance_ratios([3.0, 2.0, 1.6])
        assert r.values == pytest.approx([1.5, 1.25])

    def test_unsorted_input_is_ordered_descending(self):
        r = importance_ratios([1.6, 3.0, 2.0])
        assert r.ordering == (1, 2, 0)
        assert r.values == pytest.approx([1.5, 1.25])

    def test_zero_after_positive_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            r = importance_ratios([1.0, 0.0])
        assert r.values == pytest.approx([2.0])


class TestOrderWeights:
    def test_unit_ratios_give_uniform_weights(self):
        w = order_weights(importance_ratios([1.0] * 5))
        assert w.weights == pytest.approx([0.2] * 5, abs=1e-12)

    def test_two_indicators_at_the_cap(self):
        w = order_weights(importance_ratios([4.0, 2.0]))
        assert w.weights[list(w.ordering)] == pytest.approx([2 / 3, 1 / 3], abs=1e-12)

    def test_three_indicator_hand_recursion(self):
        # closed form, spelled out: the last weight is
        # 1 / (1 + r2*r3 + r3) and earlier weights multiply back up.
        r2, r3 = 1.5, 1.25
        w_last = 1.0 / (1.0 + r2 * r3 + r3)
        expected = [r2 * r3 * w_last, r3 * w_last, w_last]
        assert sum(expected) == pytest.approx(1.0, abs=1e-12)
        w = order_weights(importance_ratios([3.0, 2.0, 1.6]))
        sorted_weights = w.weights[list(w.ordering)]
        assert sorted_weights == pytest.approx(expected, abs=1e-12)
        assert sorted_weights == pytest.approx([15 / 33, 10 / 33, 8 / 33], abs=1e-12)

    def test_weights_map_back_to_source_positions(self):
        w = order_weights(importance_ratios([1.6, 3.0, 2.0]))
        assert w.ordering == (1, 2, 0)
        assert w.weights[1] >= w.weights[2] >= w.weights[0]

    def test_size_cap(self):
        with pytest.raises(ValidationError, match="at most 64"):
            order_weights(importance_ratios(np.linspace(100.0, 1.0, 65)))


class TestOrderWeightIdentity:
    @given(
        ratios=st.lists(
            st.floats(min_value=1.0, max_value=2.0), min_size=1, max_size=29
        )
    )
    @settings(max_examples=200)
    def test_sum_is_one_and_non_increasing(self, ratios):
        """The closed form makes the weights a probability vector for any
        ratio vector in [1, 2]; weights never increase along the ordering."""
        r = importance_ratios(np.ones(len(ratios) + 1))
        # substitute arbitrary ratios while keeping the identity ordering
        from hostrank.combining import ImportanceRatios

        r = ImportanceRatios(values=np.array(ratios), ordering=r.ordering)
        w = order_weights(r)
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(w.weights[list(w.ordering)]) <= 1e-12)


HALVES = {Category.ECONOMY: 0.5, Category.HUMAN: 0.5}


def _two_category_hierarchy():
    specs = (
        IndicatorSpec(IndicatorId.parse("A1"), "a1"),
        IndicatorSpec(IndicatorId.parse("A2"), "a2"),
        IndicatorSpec(IndicatorId.parse("B1"), "b1"),
    )
    return IndicatorHierarchy(specs=specs, reduced=True)


A1, A2 = IndicatorId.parse("A1"), IndicatorId.parse("A2")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda h: CombinedWeights(np.array([0.6, 0.5]), (0, 1)),
         "combined weights sum to 1.1, expected 1"),
        (lambda h: FeatureSelection((A1, A2), np.array([0.6, 0.5]), 0.4),
         "feature weights sum to 1.1, expected 1"),
        (lambda h: total_weights(
            h, {Category.ECONOMY: [0.5, 0.5], Category.HUMAN: [1.0]},
            category_weights={Category.ECONOMY: np.float64(0.5), Category.HUMAN: np.float64(0.4)},
         ), "category weights sum to 0.9, expected 1"),
        (lambda h: total_weights(
            h, {Category.ECONOMY: [0.5, 0.6], Category.HUMAN: [1.0]}, category_weights=HALVES
         ), "category A weights sum to 1.1, expected 1"),
    ],
    ids=["combined", "feature", "category", "in-category"],
)
def test_a_bad_sum_prints_as_a_plain_float(build, message):
    with pytest.raises(ValidationError) as err:
        build(_two_category_hierarchy())
    assert str(err.value) == message


class TestTotalWeights:
    def test_single_category_identity(self):
        h = IndicatorHierarchy(
            specs=(
                IndicatorSpec(IndicatorId.parse("A1"), "x"),
                IndicatorSpec(IndicatorId.parse("A2"), "y"),
            ),
            reduced=True,
        )
        tw = total_weights(
            h, {Category.ECONOMY: [0.6, 0.4]}, category_weights={Category.ECONOMY: 1.0}
        )
        assert tw.omega == pytest.approx([0.6, 0.4], abs=1e-12)

    def test_two_singleton_categories(self):
        specs = (
            IndicatorSpec(IndicatorId.parse("A1"), "x"),
            IndicatorSpec(IndicatorId.parse("B1"), "y"),
        )
        h = IndicatorHierarchy(specs=specs, reduced=True)
        tw = total_weights(
            h, {Category.ECONOMY: [1.0], Category.HUMAN: [1.0]}, category_weights=HALVES
        )
        assert tw.omega == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_missing_category_rejected(self):
        h = _two_category_hierarchy()
        with pytest.raises(ValidationError, match="category B has no weights"):
            total_weights(h, {Category.ECONOMY: [0.5, 0.5]}, category_weights=HALVES)

    def test_missing_category_weight_rejected(self):
        h = _two_category_hierarchy()
        per_category = {Category.ECONOMY: [0.5, 0.5], Category.HUMAN: [1.0]}
        others = {Category.ECONOMY: 0.5, Category.POLITICAL: 0.5}
        with pytest.raises(ValidationError, match="^category B has no weight$"):
            total_weights(h, per_category, category_weights=others)

    def test_category_weights_must_sum_to_one(self):
        h = _two_category_hierarchy()
        short = {Category.ECONOMY: 0.5, Category.HUMAN: 0.4}
        with pytest.raises(ValidationError, match="category weights sum to 0.9, expected 1"):
            total_weights(h, {Category.ECONOMY: [0.5, 0.5], Category.HUMAN: [1.0]},
                          category_weights=short)

    def test_full_fixture_matches_elementwise_product(self, weighting):
        """Every total weight equals its category weight times the combined
        in-category weight, recomputed independently."""
        assert weighting.total.omega.sum() == pytest.approx(1.0, abs=1e-9)
        by_id = weighting.total.by_id()
        for cat, combined in weighting.per_category.items():
            u_cat = weighting.ahp.category_weights[cat]
            for spec, u_j in zip(weighting.hierarchy.by_category(cat), combined.weights):
                assert by_id[spec.id] == pytest.approx(u_cat * float(u_j), abs=1e-12)


def _reference_total_weights(renormalize: bool) -> TotalWeights:
    """Total weights that place the published feature group on top.

    ``renormalize=True`` removes the 3-decimal rounding residue from the
    published weights (they sum to 1.002) so that the group's mass is
    exactly the published coverage.
    """
    gamma = np.array(REF_GAMMA)
    if renormalize:
        gamma = gamma / gamma.sum()
    feature_omega = dict(zip(REF_FEATURE_IDS, gamma * REF_COVERAGE))
    rest = [i for i in all_indicator_ids() if str(i) not in feature_omega]
    rest_omega = (1.0 - REF_COVERAGE) / len(rest)
    ids = tuple(all_indicator_ids())
    omega = np.array(
        [feature_omega.get(str(i), rest_omega) for i in ids]
    )
    return TotalWeights(ids=ids, omega=omega)


class TestSelectFeatures:
    def test_reference_feature_table_reproduced(self):
        tw = _reference_total_weights(renormalize=True)
        sel = select_features(tw, k=10)
        assert [str(i) for i in sel.ids] == REF_FEATURE_IDS
        assert np.max(np.abs(sel.gamma - np.array(REF_GAMMA) / sum(REF_GAMMA))) < 1e-12
        assert np.max(np.abs(sel.gamma - REF_GAMMA)) < 5e-4
        assert sel.coverage == pytest.approx(REF_COVERAGE, abs=1e-9)

    def test_reference_table_with_literal_rounded_weights(self):
        """Feeding the rounded weights verbatim keeps order and weights; the
        captured mass then carries the rounding residue factor 1.002."""
        tw = _reference_total_weights(renormalize=False)
        sel = select_features(tw, k=10)
        assert [str(i) for i in sel.ids] == REF_FEATURE_IDS
        assert np.max(np.abs(sel.gamma - REF_GAMMA)) < 5e-4
        assert sel.coverage == pytest.approx(REF_COVERAGE * sum(REF_GAMMA), abs=1e-12)

    def test_selecting_everything(self):
        tw = _reference_total_weights(renormalize=True)
        sel = select_features(tw, k=30)
        assert sel.coverage == pytest.approx(1.0, abs=1e-9)
        by_id = tw.by_id()
        for i, g in zip(sel.ids, sel.gamma):
            assert g == pytest.approx(by_id[i], abs=1e-12)

    def test_single_feature(self):
        sel = select_features(_reference_total_weights(True), k=1)
        assert sel.gamma == pytest.approx([1.0])
        assert str(sel.ids[0]) == "A5"

    def test_ties_break_by_indicator_id(self):
        ids = tuple(all_indicator_ids()[:4])  # A1..A4
        tw = TotalWeights(ids=(ids[2], ids[0], ids[3], ids[1]), omega=[0.25] * 4)
        sel = select_features(tw, k=2)
        assert [str(i) for i in sel.ids] == ["A1", "A2"]

    def test_input_permutation_invariance(self):
        tw = _reference_total_weights(renormalize=True)
        rng = np.random.default_rng(11)
        perm = rng.permutation(len(tw.ids))
        shuffled = TotalWeights(
            ids=tuple(tw.ids[i] for i in perm), omega=tw.omega[perm]
        )
        a = select_features(tw, k=10)
        b = select_features(shuffled, k=10)
        assert a.ids == b.ids
        assert np.array_equal(a.gamma, b.gamma)

    def test_coverage_target_selects_smallest_group(self):
        tw = _reference_total_weights(renormalize=True)
        sel = select_features(tw, k=None, coverage_target=0.30)
        running = 0.0
        by_id = tw.by_id()
        for i in sel.ids[:-1]:
            running += by_id[i]
        assert running < 0.30 <= running + by_id[sel.ids[-1]]


class TestEvaluateChi:
    def test_all_ones_exposes_reference_rounding_residue(self):
        # the rounded reference weights sum to 1.002, not 1
        assert weighted_score(REF_GAMMA, [1.0] * 10) == pytest.approx(1.002, abs=1e-12)

    def test_all_zeros(self):
        sel = select_features(_reference_total_weights(True), k=10)
        assert evaluate_chi(sel, np.zeros(10)) == 0.0

    def test_one_hot_on_the_top_feature(self):
        one_hot = np.eye(10)[0]
        assert weighted_score(REF_GAMMA, one_hot) == pytest.approx(0.165, abs=1e-12)

    def test_length_mismatch_rejected(self):
        sel = select_features(_reference_total_weights(True), k=10)
        with pytest.raises(ValidationError, match="length mismatch"):
            evaluate_chi(sel, np.ones(9))

    @given(
        bump=st.floats(min_value=0.0, max_value=1.0),
        pos=st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=50)
    def test_monotone_in_every_feature(self, bump, pos):
        sel = select_features(_reference_total_weights(True), k=10)
        base = np.full(10, 0.4)
        bumped = base.copy()
        bumped[pos] = min(1.0, base[pos] + bump)
        assert evaluate_chi(sel, bumped) >= evaluate_chi(sel, base)

    def test_ranking_invariant_under_weight_rescaling(self):
        rng = np.random.default_rng(2)
        gamma = np.array(REF_GAMMA)
        alternatives = rng.uniform(0, 1, size=(6, 10))
        base = [weighted_score(gamma, row) for row in alternatives]
        scaled = [weighted_score(gamma * 3.7, row) for row in alternatives]
        assert np.argsort(base).tolist() == np.argsort(scaled).tolist()


class TestFeatureSelectionInvariants:
    def test_gamma_must_sum_to_one(self):
        ids = tuple(all_indicator_ids()[:2])
        with pytest.raises(ValidationError, match="sum"):
            FeatureSelection(ids=ids, gamma=[0.6, 0.5], coverage=0.5)

    def test_gamma_must_be_non_increasing(self):
        ids = tuple(all_indicator_ids()[:2])
        with pytest.raises(ValidationError, match="non-increasing"):
            FeatureSelection(ids=ids, gamma=[0.4, 0.6], coverage=0.5)

    def test_ids_must_be_distinct(self):
        i = all_indicator_ids()[0]
        with pytest.raises(ValidationError, match="distinct"):
            FeatureSelection(ids=(i, i), gamma=[0.5, 0.5], coverage=0.5)
