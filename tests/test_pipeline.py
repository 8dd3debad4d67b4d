"""Tests for the end-to-end weighting chain."""

import numpy as np
import pytest

from hostrank.errors import ValidationError
from hostrank.indicators import DecisionMatrix
from hostrank.pipeline import compute_weights, evaluate_alternatives


class TestComputeWeights:
    def test_per_category_outputs_are_coherent(self, weighting):
        assert set(weighting.per_category) == set(weighting.hierarchy.categories)
        for combined in weighting.per_category.values():
            assert combined.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert weighting.total.omega.sum() == pytest.approx(1.0, abs=1e-9)
        assert weighting.selection.k == 10
        assert weighting.selection.gamma.sum() == pytest.approx(1.0, abs=1e-9)
        # entropy weights align with matrix columns and sum to one
        assert weighting.entropy.weights.shape == (30,)
        assert weighting.entropy.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_global_mode_is_one_combination_across_all(self, hierarchy, judgments, matrix):
        w = compute_weights(hierarchy, judgments, matrix, mode="global")
        assert w.per_category == {}
        assert w.total.omega.sum() == pytest.approx(1.0, abs=1e-9)
        assert w.selection.k == 10
        # the two modes weight indicators differently in general
        w_pc = compute_weights(hierarchy, judgments, matrix, mode="per_category")
        assert not np.allclose(w.total.omega, w_pc.total.omega)

    def test_coverage_target_controls_group_size(self, hierarchy, judgments, matrix):
        w = compute_weights(
            hierarchy, judgments, matrix, feature_count=None, coverage_target=0.3
        )
        assert w.selection.coverage >= 0.3
        omega = w.total.by_id()
        without_last = w.selection.coverage - omega[w.selection.ids[-1]]
        assert without_last < 0.3

    def test_unknown_mode_rejected(self, hierarchy, judgments, matrix):
        with pytest.raises(ValidationError, match="unknown weighting mode"):
            compute_weights(hierarchy, judgments, matrix, mode="hybrid")

    def test_matrix_column_order_must_match(self, hierarchy, judgments, matrix):
        reordered = DecisionMatrix(
            rows=matrix.rows,
            cols=tuple(reversed(matrix.cols)),
            values=matrix.values[:, ::-1],
        )
        with pytest.raises(ValidationError, match="hierarchy order"):
            compute_weights(hierarchy, judgments, reordered)

    def test_too_few_samples_rejected(self, hierarchy, judgments, matrix):
        tiny = DecisionMatrix(
            rows=matrix.rows[:1], cols=matrix.cols, values=matrix.values[:1]
        )
        with pytest.raises(ValidationError, match="at least 2 samples"):
            compute_weights(hierarchy, judgments, tiny)


class TestEvaluateAlternatives:
    def test_scores_are_in_unit_interval(self, weighting):
        scores = evaluate_alternatives(weighting.matrix, weighting.hierarchy, weighting.selection)
        assert len(scores) == weighting.matrix.n
        assert all(0.0 <= chi <= 1.0 for _, chi in scores)

    def test_dominant_alternative_scores_highest(self, hierarchy, judgments, matrix):
        """A row moved to the good end of every feature column must win."""
        from hostrank.indicators import Polarity

        w = compute_weights(hierarchy, judgments, matrix)
        values = np.array(matrix.values)
        hero = matrix.rows.index("Moscow")  # arbitrary row to promote
        for ind in w.selection.ids:
            j = matrix.cols.index(ind)
            col = values[:, j]
            spec = hierarchy.spec(ind)
            values[hero, j] = col.min() if spec.polarity is Polarity.NEGATIVE else col.max()
        boosted = DecisionMatrix(rows=matrix.rows, cols=matrix.cols, values=values)
        scores = dict(evaluate_alternatives(boosted, hierarchy, w.selection))
        assert scores["Moscow"] == max(scores.values())
