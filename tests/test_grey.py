"""Tests for the grey forecasting model."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hostrank.errors import NumericError, ValidationError
from hostrank.grey import (
    TimeSeries,
    class_ratio_bounds,
    climate_series,
    fit_gm11,
    forecast_indicator,
    forecast_series,
    forecast_value,
    predict,
)
from hostrank.selection import CityProfile, ClimateRequirement, winter_climate_filter


def geometric(q: float, n: int, c: float = 1.0) -> TimeSeries:
    return TimeSeries("geo", 2000, c * q ** np.arange(n))


class TestFit:
    def test_geometric_series_recovers_the_generator(self):
        # the model class is exactly the geometric sequences, so the fitted
        # decay rate must match the generator's -ln q
        q = math.exp(-0.1)
        series = geometric(q, 4)
        model = fit_gm11(series)
        assert model.alpha == pytest.approx(0.1, abs=1e-12)
        assert np.max(np.abs(predict(model, 0) - series.values)) < 1e-12

    def test_constant_series(self):
        model = fit_gm11(TimeSeries("c", 0, np.full(4, 3.5)))
        assert model.alpha == 0.0
        assert model.mu == 3.5
        assert predict(model, 0) == pytest.approx([3.5] * 4, abs=1e-9)

    def test_short_series_rejected(self):
        with pytest.raises(ValidationError, match=">= 4"):
            fit_gm11(TimeSeries("short", 0, np.array([1.0, 2.0, 3.0])))

    def test_nonpositive_series_rejected(self):
        with pytest.raises(ValidationError, match="nonpositive"):
            fit_gm11(TimeSeries("neg", 0, np.array([1.0, -2.0, 3.0, 4.0])))

    def test_class_ratio_violation_warns_but_fits(self):
        lo, hi = class_ratio_bounds(4)
        values = np.array([1.0, 1.0, 1.0, hi * 2])  # one wild backward ratio
        with pytest.warns(UserWarning, match="class-ratio"):
            model = fit_gm11(TimeSeries("wild", 0, values))
        assert not model.class_ratio_ok


class TestPredict:
    def test_horizon_zero_returns_in_sample_only(self):
        model = fit_gm11(geometric(0.9, 5))
        assert predict(model, 0).shape == (5,)

    def test_geometric_extrapolation(self):
        q = math.exp(-0.1)
        model = fit_gm11(geometric(q, 4))
        out = predict(model, 3)
        assert out[4:] == pytest.approx([q**4, q**5, q**6], rel=1e-9)

    def test_constant_extrapolation(self):
        model = fit_gm11(TimeSeries("c", 0, np.full(4, 2.0)))
        assert predict(model, 5) == pytest.approx([2.0] * 9, abs=1e-9)

    def test_negative_horizon_rejected(self):
        model = fit_gm11(geometric(0.9, 4))
        with pytest.raises(ValidationError, match="nonnegative"):
            predict(model, -1)

    def test_first_prediction_equals_first_observation(self):
        model = fit_gm11(geometric(1.2, 6, c=3.0))
        assert predict(model, 2)[0] == 3.0


class TestForecastSeries:
    def test_history_preserved_verbatim(self):
        history = TimeSeries("snow", 2017, np.array([40.0, 41.0, 39.5, 40.5]))
        out = forecast_series(history, 2023)
        assert len(out) == 7
        assert np.array_equal(out.values[:4], history.values)
        assert out.start_period == 2017

    def test_negative_values_shift_and_match_direct_oracle(self):
        import warnings

        temps = np.array([-12.0, -11.5, -12.5, -11.8, -12.2])
        history = TimeSeries("temp", 2016, temps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # shifted series trips the ratio band
            out = forecast_series(history, 2024)
            # oracle: fit the shifted (positive) series directly, unshift after
            shift = 1.0 - temps.min()
            shifted_model = fit_gm11(TimeSeries("temp", 2016, temps + shift))
        expected_tail = predict(shifted_model, 4)[5:] - shift
        assert out.values[5:] == pytest.approx(expected_tail, abs=0)
        assert np.array_equal(out.values[:5], temps)

    def test_until_before_history_end_rejected(self):
        history = TimeSeries("x", 2000, np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(ValidationError, match="precedes"):
            forecast_series(history, 2002)

    def test_until_before_history_end_names_the_series(self):
        history = TimeSeries("Oslo/feb_temp_c", 2000, np.array([-1.0, 2.0, 3.0, 4.0]))
        message = r"^until=2002 precedes the last observation of 'Oslo/feb_temp_c' \(2003\)$"
        for forecast in (forecast_series, forecast_value):
            with pytest.raises(ValidationError, match=message):
                forecast(history, 2002)

    def test_shift_that_overflows_is_rejected(self):
        """The shift is checked in Python floats: the error, and no numpy warning."""
        history = TimeSeries("x", 2000, np.array([-1e308, 1e308, 1e308, 1e308]))
        for forecast in (forecast_series, forecast_value):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValidationError, match="^series 'x' contains non-finite values$"):
                    forecast(history, 2005)

    def test_forecast_values_are_read_only(self):
        out = forecast_series(TimeSeries("t", 2000, np.array([-3.0, -2.9, -2.8, -2.7])), 2003)
        assert not out.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            out.values[0] = 0.0

    def test_until_at_history_end_is_identity(self):
        history = geometric(0.95, 5)
        out = forecast_series(history, history.last_period)
        assert np.array_equal(out.values, history.values)


class TestForecastIndicator:
    def _city(self, values):
        return CityProfile(
            name="Testville", country="X", gdp=1.0, sports_score=1.0,
            climate={"feb_snow_cm": TimeSeries("Testville/feb_snow_cm", 2018, values)},
        )

    def test_four_point_history_three_ahead(self):
        city = self._city(np.array([40.0, 41.0, 40.5, 41.5]))
        out = forecast_indicator(city, "feb_snow_cm", 2024)
        assert len(out) == 7
        assert np.array_equal(out.values[:4], city.climate["feb_snow_cm"].values)

    def test_three_point_history_rejected(self):
        """The city-level checks hold on the forecast path and on the gate's path."""
        city = self._city(np.array([40.0, 41.0, 40.5]))
        message = "city 'Testville' has only 3 observations of 'feb_snow_cm'; need >= 4"
        with pytest.raises(ValidationError, match=message):
            forecast_indicator(city, "feb_snow_cm", 2024)
        with pytest.raises(ValidationError, match=message):
            forecast_value(climate_series(city, "feb_snow_cm"), 2024)

    def test_missing_series_rejected(self):
        city = self._city(np.array([40.0, 41.0, 40.5, 41.0]))
        message = "city 'Testville' has no series for 'feb_temp_c'"
        with pytest.raises(ValidationError, match=message):
            forecast_indicator(city, "feb_temp_c", 2024)
        with pytest.raises(ValidationError, match=message):
            winter_climate_filter([city], ClimateRequirement(), 2024)


class TestGreyProperties:
    @given(
        q=st.floats(min_value=0.7, max_value=1.3),
        n=st.integers(min_value=4, max_value=12),
        c=st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_exact_on_geometric_sequences(self, q, n, c):
        series = geometric(q, n, c)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # long series can trip the ratio band
            model = fit_gm11(series)
            out = predict(model, 3)
        expected = c * q ** np.arange(n + 3)
        assert np.max(np.abs(out - expected) / expected) < 1e-9

    @given(
        q=st.floats(min_value=0.8, max_value=1.2),
        n=st.integers(min_value=4, max_value=10),
    )
    @settings(max_examples=40)
    def test_inverse_ago_consistency(self, q, n):
        """Cumulative sums of the original-scale output reproduce the
        cumulative predictions to double precision."""
        import warnings

        series = geometric(q, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # long series can trip the ratio band
            model = fit_gm11(series)
        x1 = np.cumsum(predict(model, 4))[:n]
        ref = _reference_curve(model.alpha, model.mu, float(series.values[0]), n)
        assert np.allclose(x1, ref, rtol=1e-12, atol=0)

    @given(offset=st.integers(min_value=-3000, max_value=3000))
    @settings(max_examples=30)
    def test_time_shift_invariance(self, offset):
        base = TimeSeries("a", 2000, np.array([5.0, 5.5, 5.2, 5.8, 6.0]))
        moved = TimeSeries("a", 2000 + offset, base.values)
        out_a = forecast_series(base, 2000 + 7)
        out_b = forecast_series(moved, 2000 + offset + 7)
        assert np.array_equal(out_a.values, out_b.values)


# ---------------------------------------------------------------------------
# Reference: the eager numpy fit and its closed-form cumulative curve.
# fit_gm11 and forecast_series must reproduce them bit for bit.


def _reference_curve(alpha, mu, first, count):
    k = np.arange(count, dtype=float)
    if abs(alpha) < 1e-12:
        out = first + mu * k
    else:
        out = (first - mu / alpha) * np.exp(-alpha * k) + mu / alpha
    out[0] = first
    return out


def _reference_fit(series):
    x0 = series.values
    n = x0.size
    lo, hi = class_ratio_bounds(n)
    ratios = x0[:-1] / x0[1:]
    ratio_ok = bool(np.all((ratios > lo) & (ratios < hi)))
    if x0.max() == x0.min():
        c = float(x0[0])
        return dict(alpha=0.0, mu=c, class_ratio_ok=ratio_ok)
    x1 = np.cumsum(x0)
    z = 0.5 * (x1[1:] + x1[:-1])
    design = np.column_stack([-z, np.ones(n - 1)])
    coef, _, rank, _ = np.linalg.lstsq(design, x0[1:], rcond=None)
    assert rank == 2
    a, b = float(coef[0]), float(coef[1])
    assert abs(a) < 2.0
    if abs(a) < 1e-12:
        alpha, mu = a, b
    else:
        alpha = math.log((2.0 + a) / (2.0 - a))
        mu = b * alpha / a
    return dict(alpha=alpha, mu=mu, class_ratio_ok=ratio_ok)


def _reference_forecast(series, until):
    horizon = until - series.last_period
    lowest = float(series.values.min())
    shift = 1.0 - lowest if lowest <= 0.0 else 0.0
    ref = _reference_fit(TimeSeries(series.label, series.start_period, series.values + shift))
    x1 = _reference_curve(ref["alpha"], ref["mu"], float(series.values[0] + shift),
                          len(series) + horizon)
    tail = np.concatenate([[x1[0]], np.diff(x1)])[len(series):] - shift
    return np.concatenate([series.values, tail])


def _bits(x):
    arr = np.asarray(x, dtype=float)
    return arr.shape, arr.tobytes()


def assert_matches_reference(series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_gm11(series)
    ref = _reference_fit(series)
    assert model.alpha == ref["alpha"] and _bits(model.alpha) == _bits(ref["alpha"])
    assert model.mu == ref["mu"] and _bits(model.mu) == _bits(ref["mu"])
    assert model.class_ratio_ok == ref["class_ratio_ok"]


def assert_forecast_matches_reference(series, until):
    expected = _reference_forecast(series, until)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not np.all(np.isfinite(expected)):
            with pytest.raises(ValidationError, match="non-finite"):
                forecast_series(series, until)
            return
        out = forecast_series(series, until)
    assert _bits(out.values) == _bits(expected)


class TestFitEqualsEagerReference:
    def test_geometric_series(self):
        series = geometric(math.exp(-0.1), 6, c=2.5)
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, 2030)

    def test_constant_series(self):
        series = TimeSeries("c", 2015, np.full(6, 45.5))
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, 2050)

    def test_class_ratio_failure(self):
        series = TimeSeries("wild", 2015, np.array([1.0, 1.0, 1.0, 3.0, 2.5]))
        with pytest.warns(UserWarning, match="class-ratio"):
            assert not fit_gm11(series).class_ratio_ok
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, 2050)

    def test_negative_values_are_shifted(self):
        series = TimeSeries("t", 2015, np.array([-12.3, -12.4, -12.2, -12.35, -12.25, -12.3]))
        shifted = TimeSeries("t", 2015, series.values + (1.0 - series.values.min()))
        assert_matches_reference(shifted)
        assert_forecast_matches_reference(series, 2050)

    def test_overflowing_forecast_is_rejected(self):
        series = TimeSeries("boom", 2000, np.array([1.0, 30.0, 900.0, 27000.0]))
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, 2010)
        with warnings.catch_warnings(), pytest.raises(ValidationError, match="non-finite"):
            warnings.simplefilter("ignore")  # exp overflow, ratio band
            forecast_series(series, 2400)

    @given(
        values=st.lists(
            st.floats(min_value=0.01, max_value=1e4, allow_nan=False, allow_infinity=False),
            min_size=4, max_size=10,
        ),
        horizon=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200)
    def test_positive_series(self, values, horizon):
        series = TimeSeries("h", 2000, np.array(values))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fit_gm11(series)
        except NumericError:
            return  # unstable coefficient; the reference asserts on the same
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, series.last_period + horizon)


# ---------------------------------------------------------------------------
# Reference: the numpy fit that fit_gm11 replaced (array cumsum, ratios and
# design rows). The Python-float fit must agree with it bit for bit, and the
# one-value forecast with the whole forecast path, errors and warnings included.


def _numpy_fit_gm11(series):
    x0 = series.values
    n = x0.size
    if n < 4:
        raise ValidationError(f"series {series.label!r} has {n} observations; need >= 4")
    lowest = x0.min()
    if lowest <= 0:
        raise ValidationError(
            f"series {series.label!r} has nonpositive values; shift before fitting"
        )
    lo, hi = class_ratio_bounds(n)
    ratios = x0[:-1] / x0[1:]
    ratio_ok = bool(ratios.min() > lo and ratios.max() < hi)
    if not ratio_ok:
        warnings.warn(
            f"series {series.label!r} fails the class-ratio test "
            f"(ratios outside ({lo:.4f}, {hi:.4f})); fit may extrapolate poorly"
        )
    if x0.max() == lowest:
        c = float(x0[0])
        return dict(alpha=0.0, mu=c, class_ratio_ok=ratio_ok)
    x1 = np.cumsum(x0)
    design = np.empty((n - 1, 2))
    z = design[:, 0]
    np.add(x1[1:], x1[:-1], out=z)
    z *= -0.5
    design[:, 1] = 1.0
    coef, _, rank, _ = np.linalg.lstsq(design, x0[1:], rcond=None)
    if rank < 2:
        raise NumericError(f"singular normal equations for series {series.label!r}")
    a, b = float(coef[0]), float(coef[1])
    if abs(a) >= 2.0:
        raise NumericError(
            f"development coefficient {a!r} outside the stable range "
            f"(-2.0, 2.0) for series {series.label!r}"
        )
    if abs(a) < 1e-12:
        alpha, mu = a, b
    else:
        alpha = math.log((2.0 + a) / (2.0 - a))
        mu = b * alpha / a
    return dict(alpha=alpha, mu=mu, class_ratio_ok=ratio_ok)


def _outcome(call):
    """What ``call()`` returns or raises, with the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except (ValidationError, NumericError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


_sizes = st.integers(min_value=1, max_value=12)
_series_values = st.one_of(
    # positive
    st.lists(st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=12),
    # nonpositive somewhere: forecasts shift, direct fits reject
    st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=12)
    .map(lambda v: v + [-abs(v[0])]),
    # constant
    st.tuples(st.floats(min_value=-50.0, max_value=1e4), _sizes).map(lambda t: [t[0]] * t[1]),
    # geometric, inside and far outside the class-ratio band
    st.tuples(
        st.floats(min_value=0.1, max_value=1e3),
        st.one_of(st.floats(min_value=0.3, max_value=0.7), st.floats(min_value=0.7, max_value=1.3),
                  st.floats(min_value=1.3, max_value=3.0)),
        _sizes,
    ).map(lambda t: (t[0] * t[1] ** np.arange(t[2])).tolist()),
    # class-ratio failing: a flat run with one wild value
    st.tuples(st.floats(min_value=0.5, max_value=100.0), st.floats(min_value=2.0, max_value=50.0),
              st.integers(min_value=4, max_value=12))
    .map(lambda t: [t[0]] * (t[2] - 1) + [t[0] * t[1]]),
)


class TestOneValueForecastEqualsFullPath:
    @given(
        values=_series_values,
        # the long horizons overflow the exponential of the growing series
        horizon=st.one_of(st.integers(min_value=-2, max_value=40), st.sampled_from([700, 2500])),
    )
    @settings(max_examples=400, deadline=None)
    def test_fit_and_forecast_value_match_bit_for_bit(self, values, horizon):
        series = TimeSeries("s", 2000, np.array(values))
        fit, fit_warned = _outcome(lambda: fit_gm11(series))
        ref, ref_warned = _outcome(lambda: _numpy_fit_gm11(series))
        assert fit_warned == ref_warned
        if isinstance(ref, tuple):
            assert fit == ref
        else:
            for name, expected in ref.items():
                got = getattr(fit, name)
                assert got == expected and _bits(got) == _bits(expected), name

        until = series.last_period + horizon
        value = _outcome(lambda: forecast_value(series, until))
        full = _outcome(lambda: forecast_series(series, until).values[-1])
        assert value == full
        if isinstance(value[0], float):
            assert _bits(value[0]) == _bits(full[0])

    def test_until_at_the_last_period_reads_the_history(self):
        series = TimeSeries("t", 2010, np.array([-3.0, -2.5, -4.0, -3.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # shifted series trips the ratio band
            assert forecast_value(series, 2013) == -3.5

    @pytest.mark.parametrize("until", [2010, 2100, 2204, 2300, 2400, 2403])
    def test_overflow_raises_like_the_full_path_without_numpy_warnings(self, until):
        """From 2209 on the curve overflows: the same error as the full
        path, and no numpy overflow or invalid-value warning on either. At
        2204 the curve is past 1e300, near the float range, yet the value
        is finite and the same as the full path's."""
        series = TimeSeries("boom", 2000, np.array([1.0, 30.0, 900.0, 27000.0]))
        value = _outcome(lambda: forecast_value(series, until))
        assert value == _outcome(lambda: forecast_series(series, until).values[-1])
        assert [category for category, _ in value[1]] == [UserWarning]  # the class-ratio test
        if until >= 2300:
            assert value[0] == (ValidationError, "series 'boom' contains non-finite values")
        else:
            assert math.isfinite(value[0])
