"""Tests for positive-direction normalization and entropy weighting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hostrank.entropy import (
    entropy_weights,
    interval_normalize,
    positivize_matrix,
    vector_normalize,
)
from hostrank.errors import NumericError, ValidationError
from hostrank.indicators import DecisionMatrix, default_hierarchy


class TestIntervalNormalize:
    def test_symmetric_band(self):
        # worst distance M = max(4-2, 8-6) = 2; both extremes score 0
        out = interval_normalize([2.0, 5.0, 8.0], 4.0, 6.0)
        assert out == pytest.approx([0.0, 1.0, 0.0])

    def test_all_inside_band_scores_ones(self):
        out = interval_normalize([4.5, 5.0, 5.5], 4.0, 6.0)
        assert np.array_equal(out, np.ones(3))

    def test_degenerate_band(self):
        # M = max(4-3, 4-4) = 1, so the below-band point scores 1 - 1/1 = 0
        out = interval_normalize([3.0, 4.0], 4.0, 4.0)
        assert out == pytest.approx([0.0, 1.0])

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValidationError):
            interval_normalize([1.0], 2.0, 1.0)

    def test_output_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            col = rng.uniform(-100, 100, size=8)
            a = rng.uniform(-50, 0)
            b = a + rng.uniform(0, 50)
            out = interval_normalize(col, a, b)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestVectorNormalize:
    def test_three_four_five_triangle(self):
        z = vector_normalize(np.array([[3.0], [4.0]]))
        assert z[:, 0] == pytest.approx([0.6, 0.8])
        assert not z.flags.writeable

    def test_constant_positive_column(self):
        z = vector_normalize(np.array([[5.0], [5.0]]))
        assert z[:, 0] == pytest.approx([math.sqrt(2) / 2] * 2)

    def test_all_columns_have_unit_norm(self):
        rng = np.random.default_rng(1)
        z = vector_normalize(rng.uniform(0.1, 9.0, size=(5, 3)))
        assert np.linalg.norm(z, axis=0) == pytest.approx([1, 1, 1], abs=1e-9)

    def test_zero_column_rejected(self):
        with pytest.raises(ValidationError, match="all-zero column"):
            vector_normalize(np.array([[0.0, 1.0], [0.0, 2.0]]))


def _hand_entropy(vals):
    """Direct arithmetic reference for the entropy chain."""
    vals = np.asarray(vals, dtype=float)
    n, m = vals.shape
    p = vals / vals.sum(axis=0)
    e = np.zeros(m)
    for j in range(m):
        for i in range(n):
            if p[i, j] > 0:
                e[j] -= p[i, j] * math.log(p[i, j])
        e[j] /= math.log(n)
    h = (1 - e) / (m - e.sum())
    return p, e, h


class TestEntropyWeights:
    def test_constant_column_gets_exactly_zero_weight(self):
        vals = np.array([[2.0, 1.0], [2.0, 3.0], [2.0, 9.0]])
        res = entropy_weights(vals)
        assert res.entropies[0] == 1.0
        assert res.weights[0] == 0.0
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_against_hand_oracle(self):
        vals = np.array([[1.0, 1.0], [1.0, 3.0]])
        p_ref, e_ref, h_ref = _hand_entropy(vals)
        res = entropy_weights(vals)
        assert res.probabilities == pytest.approx(p_ref, abs=1e-12)
        # first column is constant: exactly maximal entropy, zero weight
        assert res.entropies[0] == 1.0
        assert res.entropies[1] == pytest.approx(e_ref[1], abs=1e-12)
        assert res.weights == pytest.approx(h_ref, abs=1e-9)
        assert res.weights[0] == 0.0 and res.weights[1] == pytest.approx(1.0)

    def test_identical_varying_columns_share_weight_equally(self):
        col = np.array([1.0, 2.0, 4.0])
        vals = np.column_stack([col, col, col])
        res = entropy_weights(vals)
        assert res.weights == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_single_sample_rejected(self):
        with pytest.raises(ValidationError, match="2 samples"):
            entropy_weights(np.array([[1.0, 2.0]]))

    def test_all_constant_columns_rejected(self):
        with pytest.raises(NumericError, match="dispersion-free"):
            entropy_weights(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            entropy_weights(np.array([[1.0, -0.1], [1.0, 2.0]]))

    def test_dispersed_columns_have_lower_entropy_than_constant(self):
        vals = np.array([[5.0, 1.0], [5.0, 10.0], [5.0, 0.5]])
        res = entropy_weights(vals)
        assert res.entropies[1] < res.entropies[0] == 1.0


class TestEntropyProperties:
    @given(
        data=arrays(
            np.float64,
            (6, 4),
            elements=st.floats(min_value=0.05, max_value=50.0),
        ),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40)
    def test_row_permutation_invariance(self, data, seed):
        assume(np.ptp(data, axis=0).max() > 1e-6)  # at least one dispersed column
        rng = np.random.default_rng(seed)
        z = vector_normalize(data)
        res = entropy_weights(z)
        perm = rng.permutation(data.shape[0])
        res_p = entropy_weights(vector_normalize(data[perm]))
        assert np.allclose(res.entropies, res_p.entropies, atol=1e-12)
        assert np.allclose(res.weights, res_p.weights, atol=1e-12)

    @given(
        data=arrays(
            np.float64,
            (5, 3),
            elements=st.floats(min_value=0.05, max_value=50.0),
        ),
        scale=st.floats(min_value=0.01, max_value=1000.0),
        col=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40)
    def test_column_scaling_invariance(self, data, scale, col):
        """Scaling one raw column cancels in the normalization quotient."""
        assume(np.ptp(data, axis=0).max() > 1e-6)
        res = entropy_weights(vector_normalize(data))
        scaled = data.copy()
        scaled[:, col] *= scale
        res_s = entropy_weights(vector_normalize(scaled))
        assert np.allclose(res.weights, res_s.weights, atol=1e-12)
        assert np.allclose(res.entropies, res_s.entropies, atol=1e-12)


class TestPositivize:
    def test_negative_polarity_column_flipped(self):
        h = default_hierarchy()
        vals = np.tile(np.arange(1.0, 4.0)[:, None], (1, 30))
        m = DecisionMatrix(rows=("a", "b", "c"), cols=h.ids, values=vals)
        out = positivize_matrix(m, h)
        j_pos = h.ids.index(next(i for i in h.ids if str(i) == "A1"))
        j_neg = h.ids.index(next(i for i in h.ids if str(i) == "A5"))
        assert out[:, j_pos] == pytest.approx([1.0, 2.0, 3.0])
        assert out[:, j_neg] == pytest.approx([2.0, 1.0, 0.0])  # max - x

    def test_ideal_interval_column_uses_band_scoring(self, hierarchy):
        # the shipped hierarchy gives B5 the band [20, 40]
        import io

        from hostrank.indicators import load_decision_matrix

        header = "city," + ",".join(str(i) for i in hierarchy.ids)
        base = {str(i): 50.0 for i in hierarchy.ids}
        rows = []
        for label, b5 in (("a", 10.0), ("b", 30.0), ("c", 60.0)):
            cells = dict(base, B5=b5)
            rows.append(label + "," + ",".join(str(cells[str(i)]) for i in hierarchy.ids))
        m = load_decision_matrix(io.StringIO(header + "\n" + "\n".join(rows)), hierarchy)
        out = positivize_matrix(m, hierarchy)
        j = [str(i) for i in hierarchy.ids].index("B5")
        # M = max(20-10, 60-40) = 20; 10 -> 0.5, 30 -> 1, 60 -> 0
        assert out[:, j] == pytest.approx([0.5, 1.0, 0.0])
