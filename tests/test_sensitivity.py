"""Tests for substitution trials, second-order designs, and response surfaces."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank import sensitivity
from hostrank.combining import FeatureSelection, select_features, weighted_score
from hostrank.errors import ConfigError, NumericError, ValidationError
from hostrank.indicators import DecisionMatrix, Polarity
from hostrank.selection import CityProfile, FeatureScaler
from hostrank.sensitivity import (
    PerturbationConfig,
    SensitivityReport,
    bbd_design,
    factor_substitution,
    fit_response_surface,
    surface_extrema,
)


@pytest.fixture(scope="module")
def substitution_setup(weighting):
    """Fixture pipeline pieces shared by the substitution tests."""
    return weighting.selection, weighting.total, weighting.matrix, weighting.hierarchy


class TestFactorSubstitution:
    def test_zero_swap_trials_deviate_by_exactly_zero(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        cfg = PerturbationConfig(seed=1, n_swap=0, trials=3)
        report = factor_substitution(sel, omega, data, cfg, h)
        assert report.trials == (((), ()),) * 3
        assert report.abs_dev.shape == (3, data.n)
        assert np.all(report.abs_dev == 0.0)

    def test_identical_seeds_give_byte_identical_reports(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        cfg = PerturbationConfig(seed=77, n_swap=5, trials=4)
        a = factor_substitution(sel, omega, data, cfg, h)
        b = factor_substitution(sel, omega, data, cfg, h)
        assert a.to_csv_text() == b.to_csv_text()
        assert (a.alternatives, a.trials, a.summary) == (b.alternatives, b.trials, b.summary)
        for name in ("baseline", "chi", "abs_dev", "rel_dev"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_different_seeds_change_the_draws(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        a = factor_substitution(sel, omega, data, PerturbationConfig(seed=1, n_swap=5, trials=3), h)
        b = factor_substitution(sel, omega, data, PerturbationConfig(seed=2, n_swap=5, trials=3), h)
        assert a.to_csv_text() != b.to_csv_text()

    def test_trial_streams_are_schedule_independent(self, substitution_setup):
        """Each trial draws from its own (seed, index) stream, so a shorter
        run is a prefix of a longer one."""
        sel, omega, data, h = substitution_setup
        short = factor_substitution(
            sel, omega, data, PerturbationConfig(seed=9, n_swap=3, trials=2), h
        )
        long = factor_substitution(
            sel, omega, data, PerturbationConfig(seed=9, n_swap=3, trials=6), h
        )
        assert long.trials[: len(short.trials)] == short.trials
        assert long.chi[: len(short.trials)].tobytes() == short.chi.tobytes()

    def test_known_swap_matches_direct_recomputation(self, substitution_setup):
        """Recompute one trial's scores from its reported swap with plain
        numpy arithmetic: renormalized group weights times rescaled columns."""
        sel, omega, data, h = substitution_setup
        cfg = PerturbationConfig(seed=5, n_swap=2, trials=1)
        report = factor_substitution(sel, omega, data, cfg, h)
        (removals, additions), = report.trials

        # rebuild the substituted group from the reported removals
        group = list(sel.ids)
        for removed, added in zip(removals, additions):
            group[group.index(removed)] = added

        by_id = omega.by_id()
        gamma = np.array([by_id[i] for i in group])
        gamma = gamma / gamma.sum()

        from hostrank.indicators import Polarity

        cols = np.array([[data.row(label)[i] for i in group] for label in data.rows])
        mins, maxs = cols.min(axis=0), cols.max(axis=0)
        span = maxs - mins
        scaled = np.where(span > 0, (cols - mins) / np.where(span > 0, span, 1), 0.5)
        for j, ind in enumerate(group):
            if h.spec(ind).polarity is Polarity.NEGATIVE and span[j] > 0:
                scaled[:, j] = 1.0 - scaled[:, j]
        expected = scaled @ gamma
        assert report.chi[0] == pytest.approx(expected, abs=1e-12)
        assert report.abs_dev[0] == pytest.approx(expected - report.baseline, abs=1e-12)

    def test_swap_count_capped_by_group_size(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        with pytest.raises(ConfigError, match="exceeds"):
            factor_substitution(
                sel, omega, data, PerturbationConfig(seed=0, n_swap=sel.k + 1, trials=1), h
            )

    def test_insufficient_unselected_pool_rejected(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        wide = select_features(omega, k=28)
        with pytest.raises(ValidationError, match="unselected"):
            factor_substitution(
                wide, omega, data, PerturbationConfig(seed=0, n_swap=5, trials=1), h
            )

    def test_report_arrays_are_read_only(self, substitution_setup):
        sel, omega, data, h = substitution_setup
        report = factor_substitution(sel, omega, data, PerturbationConfig(seed=3, trials=2), h)
        for name in ("baseline", "chi", "abs_dev", "rel_dev"):
            assert not getattr(report, name).flags.writeable, name

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PerturbationConfig(seed=-1)
        with pytest.raises(ConfigError):
            PerturbationConfig(seed=0, trials=0)
        with pytest.raises(ConfigError):
            PerturbationConfig(seed=0, n_swap=-1)


def reference_substitution(selection, omega, data, config, hierarchy):
    """Per-trial loop: a CityProfile per row, a FeatureScaler fitted on each
    group, one weighted_score per alternative. The batched factor_substitution
    must reproduce it bit for bit."""

    def score(ids, gamma):
        profiles = [
            CityProfile(name=r, country="", gdp=0.0, sports_score=0.0, indicators=data.row(r))
            for r in data.rows
        ]
        scaler = FeatureScaler.fit(profiles, ids, hierarchy)
        return {p.name: weighted_score(gamma, scaler.transform(p)) for p in profiles}

    by_id = omega.by_id()
    unselected = [i for i in omega.ids if i not in set(selection.ids)]
    baseline = score(selection.ids, selection.gamma)
    swaps, chis, abs_devs, rel_devs = [], [], [], []
    for t in range(config.trials):
        rng = np.random.default_rng([config.seed, t])
        group, removed, added = list(selection.ids), (), ()
        if config.n_swap:
            positions = sorted(
                rng.choice(selection.k, size=config.n_swap, replace=False).tolist()
            )
            picks = sorted(
                rng.choice(len(unselected), size=config.n_swap, replace=False).tolist()
            )
            removed = tuple(group[p] for p in positions)
            added = tuple(unselected[p] for p in picks)
            for pos, sub in zip(positions, added):
                group[pos] = sub
        gamma = np.array([by_id[i] for i in group])
        chi = score(tuple(group), gamma / gamma.sum())
        abs_dev = {a: chi[a] - baseline[a] for a in chi}
        rel_dev = {
            a: abs_dev[a] / abs(baseline[a]) if baseline[a] != 0 else float("nan")
            for a in chi
        }
        swaps.append((removed, added))
        chis.append([chi[a] for a in data.rows])
        abs_devs.append([abs_dev[a] for a in data.rows])
        rel_devs.append([rel_dev[a] for a in data.rows])

    def stats(devs):
        return {
            "mean_abs_dev": float(devs.mean()),
            "max_abs_dev": float(devs.max()),
            "std_abs_dev": float(devs.std()),
        }

    summary = {
        alt: stats(np.array([abs(devs[j]) for devs in abs_devs]))
        for j, alt in enumerate(data.rows)
    }
    summary["(overall)"] = stats(np.array([abs(d) for devs in abs_devs for d in devs]))
    return SensitivityReport(
        config, data.rows, np.array([baseline[a] for a in data.rows]), tuple(swaps),
        np.array(chis), np.array(abs_devs), np.array(rel_devs), summary,
    )


def _with_values(data, values):
    return DecisionMatrix(rows=data.rows, cols=data.cols, values=values)


def _equivalence_case(name, weighting):
    """(selection, data) for one equivalence scenario over the fixture weights."""
    sel, omega, data, h = (
        weighting.selection, weighting.total, weighting.matrix, weighting.hierarchy
    )
    unselected = [i for i in omega.ids if i not in sel.ids]
    if name == "fixture":
        return sel, data
    if name == "negative_polarity_group":
        negatives = [i for i in omega.ids if h.spec(i).polarity is Polarity.NEGATIVE]
        by_id = omega.by_id()
        ids = sorted(set(sel.ids[:6]) | set(negatives[:4]), key=lambda i: -by_id[i])
        weights = np.array([by_id[i] for i in ids])
        group = FeatureSelection(ids=ids, gamma=weights / weights.sum(), coverage=weights.sum())
        return group, data
    values = data.values.copy()
    if name == "zero_span_selected_column":
        values[:, data.cols.index(sel.ids[2])] = 4.0
        return sel, _with_values(data, values)
    # zero_baseline: row 0 is the worst alternative in every column, so its
    # baseline score is exactly 0 and its relative deviations are NaN; one
    # unselected column is flat, so trials that draw it scale it to 0.5.
    for j, ind in enumerate(data.cols):
        negative = h.spec(ind).polarity is Polarity.NEGATIVE
        values[0, j] = values[:, j].max() if negative else values[:, j].min()
    values[:, data.cols.index(unselected[0])] = 2.5
    return sel, _with_values(data, values)


@pytest.mark.parametrize("seed", [0, 7, 4242])
@pytest.mark.parametrize("n_swap", [0, 3, 5])
@pytest.mark.parametrize(
    "case",
    ["fixture", "negative_polarity_group", "zero_span_selected_column", "zero_baseline"],
)
def test_batched_trials_equal_per_trial_reference(weighting, case, n_swap, seed, monkeypatch):
    # Gather two groups per batch, so batch edges are crossed too.
    monkeypatch.setattr(sensitivity, "_GATHER_CELLS", 1000)
    selection, data = _equivalence_case(case, weighting)
    config = PerturbationConfig(seed=seed, n_swap=n_swap, trials=12)
    batched = factor_substitution(selection, weighting.total, data, config, weighting.hierarchy)
    reference = reference_substitution(
        selection, weighting.total, data, config, weighting.hierarchy
    )
    assert batched.alternatives == reference.alternatives
    assert batched.trials == reference.trials
    for name in ("baseline", "chi", "abs_dev"):
        got, want = getattr(batched, name), getattr(reference, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert np.array_equal(batched.rel_dev, reference.rel_dev, equal_nan=True)
    assert batched.summary == reference.summary
    # repr() round-trips floats, so equal text means bit-equal values, NaN included.
    assert batched.to_csv_text() == reference.to_csv_text()
    if case == "zero_baseline":
        assert reference.baseline[0] == 0.0
        assert np.isnan(batched.rel_dev[0, 0])


@pytest.mark.parametrize("label", ['New York, "NY"', "two\nlines", "carriage\rreturn", "plain"])
def test_csv_quotes_labels_as_the_csv_module_reads_them(weighting, label):
    data = weighting.matrix
    renamed = DecisionMatrix(rows=(label, *data.rows[1:]), cols=data.cols, values=data.values)
    config = PerturbationConfig(seed=1, n_swap=2, trials=2)
    report = factor_substitution(
        weighting.selection, weighting.total, renamed, config, weighting.hierarchy
    )
    rows = list(csv.reader(io.StringIO(report.to_csv_text(), newline="")))
    assert {len(row) for row in rows} == {8}
    # the header, then the label as baseline, in each trial and in 3 summary rows
    assert [row[2] for row in rows].count(label) == 1 + 2 + 3
    assert len(rows) == 1 + data.n * (1 + 2 + 3) + 3


class TestBBDesign:
    def test_design_is_a_read_only_array(self):
        design = bbd_design(3)
        assert isinstance(design, np.ndarray) and design.shape == (15, 3)
        assert not design.flags.writeable

    def test_three_factor_design_with_three_centers(self):
        design = bbd_design(3, center_replicates=3)
        assert len(design) == 15  # 4 * 3 * 2 / 2 + 3

    def test_four_factor_design_with_one_center(self):
        assert len(bbd_design(4, center_replicates=1)) == 25

    def test_point_counts_for_k_three_to_seven(self):
        for k in range(3, 8):
            for c in (0, 1, 3):
                assert len(bbd_design(k, c)) == 4 * k * (k - 1) // 2 + c

    def test_non_center_points_have_exactly_two_active_factors(self):
        pts = bbd_design(5, center_replicates=2)
        non_center = pts[: len(pts) - 2]
        assert np.all((non_center != 0).sum(axis=1) == 2)
        assert np.all(np.isin(non_center[non_center != 0], (-1.0, 1.0)))
        assert np.all(pts[-2:] == 0)

    def test_two_factor_fallback_is_the_full_factorial(self):
        design = bbd_design(2, center_replicates=1)
        corners = {tuple(p) for p in design[:4]}
        assert corners == {(-1, -1), (-1, 1), (1, -1), (1, 1)}
        assert len(design) == 5

    def test_fewer_than_two_factors_rejected(self):
        with pytest.raises(ValidationError):
            bbd_design(1)

    def test_deterministic_point_order(self):
        a = bbd_design(4, 2)
        b = bbd_design(4, 2)
        assert a.tobytes() == b.tobytes()


def _random_quadratic(rng, k):
    """Random full second-order coefficients with an evaluation closure."""
    intercept = rng.uniform(-2, 2)
    linear = rng.uniform(-2, 2, size=k)
    pairs = list(itertools.combinations(range(k), 2))
    inter = rng.uniform(-2, 2, size=len(pairs))
    squares = rng.uniform(-2, 2, size=k)

    def f(x):
        x = np.atleast_2d(x)
        out = np.full(x.shape[0], intercept)
        out += x @ linear
        for idx, (i, j) in enumerate(pairs):
            out += inter[idx] * x[:, i] * x[:, j]
        out += (x**2) @ squares
        return out

    return (intercept, linear, inter, squares), f


class TestFitResponseSurface:
    @given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=3, max_value=5))
    @settings(max_examples=40)
    def test_quadratic_responses_recovered_exactly(self, seed, k):
        rng = np.random.default_rng(seed)
        (intercept, linear, inter, squares), f = _random_quadratic(rng, k)
        design = bbd_design(k, center_replicates=3)
        surface = fit_response_surface(design, f(design))
        assert surface.r_squared == pytest.approx(1.0, abs=1e-9)
        assert surface.intercept == pytest.approx(intercept, abs=1e-9)
        assert surface.linear == pytest.approx(linear, abs=1e-9)
        assert surface.interactions == pytest.approx(inter, abs=1e-9)
        assert surface.squares == pytest.approx(squares, abs=1e-9)

    def test_constant_responses_have_zero_shape_terms(self):
        design = bbd_design(3, center_replicates=3)
        surface = fit_response_surface(design, np.full(len(design), 4.2))
        assert surface.intercept == pytest.approx(4.2, abs=1e-12)
        assert np.max(np.abs(surface.linear)) < 1e-12
        assert np.max(np.abs(surface.interactions)) < 1e-12
        assert np.max(np.abs(surface.squares)) < 1e-12
        assert surface.r_squared == 1.0

    def test_two_factor_design_cannot_identify_full_quadratic(self):
        design = bbd_design(2, center_replicates=1)
        with pytest.raises(NumericError, match="rank-deficient"):
            fit_response_surface(design, np.arange(len(design), dtype=float))

    def test_response_count_mismatch_rejected(self):
        design = bbd_design(3, center_replicates=1)
        with pytest.raises(ValidationError, match="responses"):
            fit_response_surface(design, np.ones(len(design) - 1))

    def test_weighted_sum_surface_matches_probe_grid(self, weighting):
        """An evaluation-score response over two perturbed feature weights is
        affine, so the quadratic fit must agree with pointwise re-evaluation
        everywhere, not just at the design points."""
        from hostrank.selection import CityProfile, FeatureScaler

        sel, h, data = weighting.selection, weighting.hierarchy, weighting.matrix
        profiles = [
            CityProfile(name=r, country="", gdp=0, sports_score=0, indicators=data.row(r))
            for r in data.rows
        ]
        scaler = FeatureScaler.fit(profiles, sel.ids, h)
        xi = scaler.transform(profiles[0])

        def chi_for(weights_pair):
            gamma = sel.gamma.copy()
            gamma[0], gamma[9] = weights_pair
            return float(gamma @ xi)

        g0, g9 = sel.gamma[0], sel.gamma[9]
        box = [(g0 * 0.5, g0 * 1.5), (g9 * 0.5, g9 * 1.5)]
        axes = [np.linspace(lo, hi, 3) for lo, hi in box]
        pts = np.array([[a, b] for a in axes[0] for b in axes[1]])
        surface = fit_response_surface(pts, [chi_for(p) for p in pts])

        probe_axes = [np.linspace(lo, hi, 5) for lo, hi in box]
        probe = np.array([[a, b] for a in probe_axes[0] for b in probe_axes[1]])
        fitted = surface.evaluate(probe)
        direct = np.array([chi_for(p) for p in probe])
        assert np.max(np.abs(fitted - direct)) < 1e-9


class TestSurfaceExtrema:
    def test_parabola_on_unit_interval(self):
        # z = x^2: minimum at the center, maximum at both ends, span 1
        surface = fit_response_surface(
            np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]]),
            np.array([1.0, 0.25, 0.0, 0.25, 1.0]),
        )
        ext = surface_extrema(surface, [(-1.0, 1.0)])
        assert ext.min_value == pytest.approx(0.0, abs=1e-12)
        assert ext.min_point[0] == pytest.approx(0.0, abs=1e-12)
        assert ext.max_value == pytest.approx(1.0, abs=1e-12)
        assert abs(ext.max_point[0]) == pytest.approx(1.0, abs=1e-12)
        assert ext.span == pytest.approx(1.0, abs=1e-12)
        # near-zero center response makes the relative range meaningless
        assert ext.joint_range > 1e12 or ext.joint_range == float("inf")

    def test_additive_surface_peaks_at_corners(self):
        pts = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=2)))
        responses = 2.0 * pts[:, 0] + 3.0 * pts[:, 1] + 1.0
        surface = fit_response_surface(pts, responses)
        ext = surface_extrema(surface, [(-1.0, 1.0), (-1.0, 1.0)])
        assert ext.max_point == pytest.approx([1.0, 1.0])
        assert ext.min_point == pytest.approx([-1.0, -1.0])
        assert ext.max_value == pytest.approx(6.0, abs=1e-12)
        assert ext.baseline == pytest.approx(1.0, abs=1e-12)
        assert ext.joint_range == pytest.approx(10.0, abs=1e-10)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=30)
    def test_matches_dense_grid_search(self, seed):
        rng = np.random.default_rng(seed)
        _, f = _random_quadratic(rng, 2)
        design = bbd_design(2, center_replicates=0)
        extra = rng.uniform(-1, 1, size=(8, 2))
        pts = np.vstack([design, [[0.0, 0.0]], extra])
        surface = fit_response_surface(pts, f(pts))
        box = [(-1.0, 1.0), (-1.0, 1.0)]
        ext = surface_extrema(surface, box)
        axis = np.linspace(-1.0, 1.0, 501)
        grid = np.array(np.meshgrid(axis, axis)).reshape(2, -1).T
        vals = surface.evaluate(grid)
        assert ext.min_value <= vals.min() + 1e-12
        assert ext.max_value >= vals.max() - 1e-12
        assert ext.min_value == pytest.approx(vals.min(), abs=2e-4)
        assert ext.max_value == pytest.approx(vals.max(), abs=2e-4)

    def test_bad_box_rejected(self):
        surface = fit_response_surface(
            np.array([[-1.0], [0.0], [1.0]]), np.array([1.0, 0.0, 1.0])
        )
        with pytest.raises(ValidationError, match="low > high"):
            surface_extrema(surface, [(1.0, -1.0)])
