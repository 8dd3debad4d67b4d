"""Tests for judgment matrices, eigenvector weights, and the consistency gate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank.ahp import (
    _RECIPROCITY_TOL,
    SAATY_RANDOM_INDEX,
    ahp_weights,
    consistency,
    principal_eigen,
    validate_judgment,
)
from hostrank.errors import ValidationError
from hostrank.indicators import Category, IndicatorHierarchy, IndicatorId, IndicatorSpec

CONSISTENT_3 = [[1, 2, 4], [0.5, 1, 2], [0.25, 0.5, 1]]


def eig_oracle(matrix):
    """Dense eigensolver reference: dominant eigenvalue and sum-1 eigenvector."""
    vals, vecs = np.linalg.eig(np.asarray(matrix, dtype=float))
    i = int(np.argmax(vals.real))
    w = np.abs(vecs[:, i].real)
    return float(vals[i].real), w / w.sum()


def random_consistent(rng, n):
    """Fully consistent matrix built from a weight vector with ratios within scale."""
    w = rng.uniform(1.0, 3.0, size=n)
    return w[:, None] / w[None, :], w / w.sum()


def random_reciprocal(rng, n):
    """Random upper triangle on the discrete 1..9 scale, reciprocals below."""
    scale = np.array([1/9, 1/7, 1/5, 1/3, 1, 3, 5, 7, 9])
    m = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.choice(scale)
            m[i, j] = v
            m[j, i] = 1.0 / v
    return m


def first_violation_by_loops(rows):
    """The message of the first failed sign, diagonal or reciprocity check, cell by cell.

    The reference for ``validate_judgment``'s array masks; None when all hold.
    """
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if rows[i][j] <= 0.0:
                return f"nonpositive entry {rows[i][j]!r} at ({i + 1},{j + 1})"
    for i in range(n):
        if abs(rows[i][i] - 1.0) > _RECIPROCITY_TOL:
            return f"diagonal entry at ({i + 1},{i + 1}) is {rows[i][i]!r}, expected 1"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(rows[i][j] * rows[j][i] - 1.0) > _RECIPROCITY_TOL:
                return (
                    f"reciprocity violated at ({i + 1},{j + 1})/({j + 1},{i + 1}): "
                    f"{rows[i][j]!r} * {rows[j][i]!r} != 1"
                )
    return None


class TestValidateJudgment:
    def test_trivial_two_by_two(self):
        assert validate_judgment([[1, 1], [1, 1]]).order == 2

    def test_exact_reciprocal_pair(self):
        jm = validate_judgment([[1, 2], [0.5, 1]])
        assert jm.values[0, 1] == 2.0

    def test_reciprocity_violation_names_the_cell_pair(self):
        with pytest.raises(ValidationError, match=r"\(1,2\)/\(2,1\)"):
            validate_judgment([[1, 2], [0.6, 1]])

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            validate_judgment([[1, 2, 3], [1 / 2, 1, 2]])

    def test_nonpositive_entry_rejected(self):
        with pytest.raises(ValidationError, match="nonpositive"):
            validate_judgment([[1, 0.0], [1e9, 1]])

    def test_diagonal_must_be_one(self):
        with pytest.raises(ValidationError, match="diagonal"):
            validate_judgment([[2, 1], [1, 1]])

    def test_entries_outside_scale_rejected(self):
        with pytest.raises(ValidationError, match="scale"):
            validate_judgment([[1, 12], [1 / 12, 1]])

    def test_order_bounds(self):
        with pytest.raises(ValidationError, match="order"):
            validate_judgment([[1]])

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[1, -1, 0.0], [1, 1, 1], [1, -2, 1]], "nonpositive entry -1.0 at (1,2)"),
            ([[1, 1, 1], [1, 1.5, 1], [1, 1, 0.5]], "diagonal entry at (2,2) is 1.5, expected 1"),
            (
                [[1, 1, 2], [1, 1, 3], [1, 0.25, 1]],
                "reciprocity violated at (1,3)/(3,1): 2.0 * 1.0 != 1",
            ),
            (
                [[1, 1, 1 / 12], [1, 1, 1], [12, 1, 1]],
                "entry 12.0 at (3,1) outside the 1/9..9 scale",
            ),
        ],
        ids=["nonpositive", "diagonal", "reciprocity", "scale"],
    )
    def test_first_violation_in_row_major_order_is_named_with_plain_numbers(
        self, matrix, message
    ):
        with pytest.raises(ValidationError) as err:
            validate_judgment(matrix)
        assert str(err.value) == message

    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 4.0]),
                         min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    @settings(max_examples=300)
    def test_masks_report_what_the_cell_loops_report(self, rows):
        expected = first_violation_by_loops(rows)
        if expected is None:
            validate_judgment(rows)
        else:
            with pytest.raises(ValidationError) as err:
                validate_judgment(rows)
            assert str(err.value) == expected


class TestPrincipalEigen:
    def test_perfectly_consistent_three_by_three(self):
        lam, w = principal_eigen(validate_judgment(CONSISTENT_3))
        assert lam == pytest.approx(3.0, abs=1e-10)
        assert w == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=1e-10)

    def test_symmetric_two_by_two(self):
        lam, w = principal_eigen(validate_judgment([[1, 1], [1, 1]]))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert w == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_dense_eigensolver_on_random_4x4(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = random_reciprocal(rng, 4)
            lam, w = principal_eigen(validate_judgment(m))
            lam_ref, w_ref = eig_oracle(m)
            assert lam == pytest.approx(lam_ref, abs=1e-8)
            assert np.max(np.abs(w - w_ref)) < 1e-8

    def test_weights_sum_to_one_and_are_positive(self):
        rng = np.random.default_rng(5)
        for n in range(2, 10):
            _, w = principal_eigen(validate_judgment(random_reciprocal(rng, n)))
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)


class TestConsistency:
    def test_consistent_matrix_has_zero_cr(self):
        jm = validate_judgment(CONSISTENT_3)
        lam, _ = principal_eigen(jm)
        rep = consistency(jm, lam)
        assert rep.ci == pytest.approx(0.0, abs=1e-9)
        assert rep.cr == pytest.approx(0.0, abs=1e-9)
        assert rep.passed

    def test_cyclic_matrix_against_eigensolver_oracle(self):
        m = [[1, 3, 1 / 5], [1 / 3, 1, 5], [5, 1 / 5, 1]]
        jm = validate_judgment(m)
        lam, _ = principal_eigen(jm)
        rep = consistency(jm, lam)
        lam_ref, _ = eig_oracle(m)
        cr_ref = ((lam_ref - 3) / 2) / SAATY_RANDOM_INDEX[3]
        assert rep.cr == pytest.approx(cr_ref, abs=1e-8)
        assert rep.passed is (cr_ref < 0.1)
        assert not rep.passed  # cyclic preferences are wildly inconsistent

    def test_order_two_defined_as_zero(self):
        jm = validate_judgment([[1, 5], [0.2, 1]])
        lam, _ = principal_eigen(jm)
        rep = consistency(jm, lam)
        assert rep.cr == 0.0
        assert rep.passed


def _reduced_hierarchy(sizes: dict[str, int]) -> IndicatorHierarchy:
    specs = []
    for letter, count in sizes.items():
        cat = Category(letter)
        for i in range(1, count + 1):
            specs.append(IndicatorSpec(IndicatorId(cat, i), f"{letter}{i}"))
    return IndicatorHierarchy(specs=tuple(specs), reduced=True)


class TestAhpWeights:
    def test_all_ones_matrices_give_uniform_weights(self):
        h = _reduced_hierarchy({"A": 2, "B": 3})
        ones = lambda n: [[1.0] * n for _ in range(n)]
        out = ahp_weights(h, {"primary": ones(2), "A": ones(2), "B": ones(3)})
        assert out.category_weights[Category.ECONOMY] == pytest.approx(0.5, abs=1e-12)
        a_ids = [IndicatorId.parse(t) for t in ("A1", "A2")]
        b_ids = [IndicatorId.parse(t) for t in ("B1", "B2", "B3")]
        for i in a_ids:
            assert out.indicator_weights[i] == pytest.approx(0.5, abs=1e-12)
        for i in b_ids:
            assert out.indicator_weights[i] == pytest.approx(1 / 3, abs=1e-12)

    def test_single_category_reduces_to_principal_eigen(self):
        h = _reduced_hierarchy({"C": 3})
        out = ahp_weights(h, {"C": CONSISTENT_3})
        assert out.category_weights[Category.SOCIOCULTURAL] == 1.0
        expected = [4 / 7, 2 / 7, 1 / 7]
        for i, e in zip(sorted(out.indicator_weights), expected):
            assert out.indicator_weights[i] == pytest.approx(e, abs=1e-9)

    def test_two_level_composition_matches_oracle(self):
        h = _reduced_hierarchy({"A": 3, "B": 2})
        primary = [[1, 3], [1 / 3, 1]]
        mat_a = CONSISTENT_3
        mat_b = [[1, 2], [0.5, 1]]
        out = ahp_weights(h, {"primary": primary, "A": mat_a, "B": mat_b})
        _, u_ref = eig_oracle(primary)
        _, va_ref = eig_oracle(mat_a)
        _, vb_ref = eig_oracle(mat_b)
        composed = {
            "A1": u_ref[0] * va_ref[0], "A2": u_ref[0] * va_ref[1],
            "A3": u_ref[0] * va_ref[2],
            "B1": u_ref[1] * vb_ref[0], "B2": u_ref[1] * vb_ref[1],
        }
        for key, expected in composed.items():
            i = IndicatorId.parse(key)
            got = out.category_weights[i.category] * out.indicator_weights[i]
            assert got == pytest.approx(expected, abs=1e-8)

    def test_consistency_gate_failure_names_the_matrix(self):
        h = _reduced_hierarchy({"A": 3})
        bad = [[1, 3, 1 / 5], [1 / 3, 1, 5], [5, 1 / 5, 1]]
        with pytest.raises(ValidationError, match="'A'"):
            ahp_weights(h, {"A": bad})

    def test_numpy_arrays_give_the_same_weights_as_lists(self):
        h = _reduced_hierarchy({"A": 3, "B": 2})
        lists = {"primary": [[1, 3], [1 / 3, 1]], "A": CONSISTENT_3, "B": [[1, 2], [0.5, 1]]}
        arrays = {key: np.array(m) for key, m in lists.items()}
        assert ahp_weights(h, arrays) == ahp_weights(h, lists)

    def test_missing_matrix_is_reported(self):
        h = _reduced_hierarchy({"A": 2, "B": 2})
        with pytest.raises(ValidationError, match="missing judgment matrix 'B'"):
            ahp_weights(h, {"primary": [[1, 1], [1, 1]], "A": [[1, 1], [1, 1]]})


class TestConsistentRecoveryProperty:
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_generator_weights_recovered(self, n, seed):
        """A matrix built from ratios w_i/w_j must give CR ~ 0 and return w."""
        m, w_true = random_consistent(np.random.default_rng(seed), n)
        jm = validate_judgment(m)
        lam, w = principal_eigen(jm)
        rep = consistency(jm, lam)
        assert rep.cr < 1e-9
        assert np.max(np.abs(w - w_true)) < 1e-8
