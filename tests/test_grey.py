"""Tests for the grey forecasting model."""

import copy
import json
import math
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

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
)
from hostrank.selection import CityProfile, ClimateRequirement, winter_climate_filter

from _grey_curve import predict


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


class TestFloatRange:
    def test_cumulative_sum_that_overflows_is_a_numeric_error(self):
        """Finite values whose running sum is past the float range: one error,
        raised before the class-ratio test, so no warning precedes it."""
        series = TimeSeries("x", 2000, np.array([1e308, 1.7e308, 1e308, 1.2e308]))
        message = "^cumulative sum of series 'x' overflows$"
        for call in (fit_gm11, lambda s: forecast_series(s, 2010),
                     lambda s: forecast_value(s, 2010)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericError, match=message):
                    call(series)

    def test_constant_series_past_the_float_range_keeps_the_exact_branch(self):
        model = fit_gm11(TimeSeries("c", 0, np.full(4, 1e308)))
        assert (model.alpha, model.mu) == (0.0, 1e308)

    @pytest.mark.parametrize("values", [
        [1e200, 2e200, 3e200, 5e200],  # squares past the float range
        [1e307] * 10 + [2e307],  # running sum finite, sum of u past the float range
        [1e-160, 2e-160, 3e-160, 5e-160],  # squared deviations below the normal floats
    ])
    def test_series_past_the_sums_range_is_singular(self, values):
        """Decided: as lstsq's relative rank test had them, such series are
        singular, with one error and no traceback from the sums."""
        series = TimeSeries("x", 2017, np.array(values))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # some fail the class-ratio test
            for call in (fit_gm11, lambda s: forecast_value(s, 2030)):
                with pytest.raises(NumericError, match="^singular normal equations for series 'x'$"):
                    call(series)

    def test_large_finite_values_whose_sum_overflows_are_accepted(self):
        values = np.array([1e308, 1e308, -1e308, 1e308])
        assert np.array_equal(TimeSeries("x", 0, values).values, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(ValidationError, match="^series 'x' contains non-finite values$"):
            TimeSeries("x", 0, np.array([1.0, bad, 2.0, 3.0]))

    def test_long_label_is_quoted_short(self):
        label = "n" * 50_000
        with pytest.raises(ValidationError) as caught:
            fit_gm11(TimeSeries(label, 0, np.array([1.0, 2.0, 3.0])))
        cut = f"'{'n' * 59}... (50002 characters)"
        assert str(caught.value) == f"series {cut} has 3 observations; need >= 4"

    def test_label_of_60_characters_is_quoted_whole(self):
        label = "n" * 60
        with pytest.raises(ValidationError, match=f"^series '{label}' has 3 observations"):
            fit_gm11(TimeSeries(label, 0, np.array([1.0, 2.0, 3.0])))


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
# Reference: the eager numpy fit (an SVD least squares, np.linalg.lstsq) and
# its closed-form cumulative curve. fit_gm11 solves the same least squares in
# closed form, so its (alpha, mu) agree with the reference to the tolerances
# below, not bit for bit. The forecast path is exact: forecast_series
# reproduces the reference curve at fit_gm11's own (alpha, mu) bit for bit.
#
# Two least-squares solvers differ by rounding, and how far rounding moves
# a fit depends on the data. So each tolerance is _ROUNDING_TOL times a
# first-order rounding scale that _rounding_scales works out from the series
# (see there). _ROUNDING_TOL is over 10x the worst ratio of difference to
# scale measured between the two fits in two runs of 40,000 series each,
# drawn from this file's hypothesis domains with horizons 0-40: 2.4 for
# alpha, 1.1 for mu and 1.1 for a forecast value. (Plain tolerances failed:
# near |a| = 2 the mapping stretches a's rounding 25-fold, and a nearly flat
# background z loses digits in the centring.) Outcomes, warnings and
# messages matched.
_ROUNDING_TOL = 32.0
_EPS = 2.0**-52


def _reference_curve(alpha, mu, first, count):
    """x1_hat at k = 0..count-1 on numpy arrays, by the IEEE operations grey's
    curve performs on Python floats; index 0 is ``first`` exactly."""
    out = np.arange(count, dtype=float)
    if abs(alpha) < 1e-12:
        out *= mu
        out += first
    else:
        c = mu / alpha
        out *= -alpha
        np.exp(out, out=out)
        out *= first - c
        out += c
    out[0] = first
    return out


def _rounding_scales(values, alpha):
    """First-order rounding errors of a fit to positive ``values`` with
    decay ``alpha``: (alpha's absolute, mu's relative).

    Centring u = -z(k) loses |mean u| / std u of the digits, and the raw
    slope a = cov(u, y) / var(u) is read from the centred sums. Then
    alpha = ln((2 + a) / (2 - a)) has slope cosh(alpha / 2)**2 in a, and
    mu = b alpha / a with b = mean y - a mean u.
    """
    x1 = np.cumsum(values)
    u, y = -0.5 * (x1[1:] + x1[:-1]), values[1:]
    du, dy = u - u.mean(), y - y.mean()
    a = float(du @ dy / (du @ du))
    b = float(y.mean() - a * u.mean())
    u_mean, y_mean, u_std = abs(float(u.mean())), abs(float(y.mean())), float(u.std())
    err_a = _EPS * (1 + u_mean / u_std) * (abs(a) + float(y.std()) / u_std)
    err_alpha = math.cosh(alpha / 2) ** 2 * err_a + _EPS
    if not (alpha and a and b):
        return err_alpha, math.inf
    err_b = u_mean * err_a + _EPS * (y_mean + abs(a) * u_mean)
    return err_alpha, err_alpha / abs(alpha) + err_a / abs(a) + err_b / abs(b)


def _forecast_scale(values, alpha, mu, count):
    """First-order rounding error of each original-scale value of the curve.

    A value is the difference of two points of the cumulative curve
    (x0(1) - c) exp(-alpha k) + c, c = mu / alpha. Its error is c's error in
    both terms, plus k times alpha's error in the exponential one.
    """
    err_alpha, err_mu = _rounding_scales(values, alpha)
    k = np.arange(count, dtype=float)
    first = float(values[0])
    if abs(alpha) < 1e-12:
        return (abs(first) + abs(mu) * k) * (err_mu + _EPS)
    c = mu / alpha
    err_c = abs(c) * (err_mu + err_alpha / abs(alpha) + _EPS)
    with np.errstate(over="ignore"):
        growth = np.exp(-alpha * k)
    return (abs(first - c) * (k * err_alpha + _EPS) + err_c) * growth + err_c


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


def _model_fit(series):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_gm11(series)
    return dict(alpha=model.alpha, mu=model.mu, class_ratio_ok=model.class_ratio_ok)


def _reference_forecast(series, until, fit=_reference_fit):
    """History and forecasts through ``until``, from the curve at ``fit``'s parameters."""
    horizon = until - series.last_period
    lowest = float(series.values.min())
    shift = 1.0 - lowest if lowest <= 0.0 else 0.0
    values = series.values + shift
    ref = fit(TimeSeries(series.label, series.start_period, values))
    count = len(series) + horizon
    x1 = _reference_curve(ref["alpha"], ref["mu"], float(values[0]), count)
    tail = np.concatenate([[x1[0]], np.diff(x1)])[len(series):] - shift
    scale = _forecast_scale(values, ref["alpha"], ref["mu"], count)
    return np.concatenate([series.values, tail]), scale


def _bits(x):
    arr = np.asarray(x, dtype=float)
    return arr.shape, arr.tobytes()


def assert_fit_close(got, ref, values):
    """A fit to positive ``values`` against the reference fit: the class-ratio
    flag exactly, (alpha, mu) exactly for a constant series, else to the
    stated tolerances."""
    assert got["class_ratio_ok"] == ref["class_ratio_ok"]
    alpha, mu = ref["alpha"], ref["mu"]
    if values.max() == values.min():
        assert _bits([got["alpha"], got["mu"]]) == _bits([alpha, mu])
        return
    err_alpha, err_mu = _rounding_scales(values, alpha)
    assert abs(got["alpha"] - alpha) <= _ROUNDING_TOL * err_alpha, (got["alpha"], alpha)
    assert abs(got["mu"] - mu) <= _ROUNDING_TOL * err_mu * abs(mu), (got["mu"], mu)


def assert_matches_reference(series):
    assert_fit_close(_model_fit(series), _reference_fit(series), series.values)


def assert_forecast_matches_reference(series, until):
    expected, scale = _reference_forecast(series, until)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not np.all(np.isfinite(expected)):
            with pytest.raises(ValidationError, match="non-finite"):
                forecast_series(series, until)
            return
        out = forecast_series(series, until).values
    assert _bits(out) == _bits(_reference_forecast(series, until, _model_fit)[0])
    n = len(series)
    assert _bits(out[:n]) == _bits(series.values)
    gap = np.abs(out[n:] - expected[n:])
    assert np.all(gap <= _ROUNDING_TOL * scale[n:]), (out[n:], expected[n:])


class TestFitEqualsEagerReference:
    def test_geometric_series(self):
        """The closed form's (alpha, mu) bit for bit: its sums are math.fsum's,
        so no BLAS kernel or Python version moves them. The values are
        2.5 exp(-0.1 k), k = 0..5, written out so no power kernel moves them
        either. Both are within 1.6e-16 of the exact fit to these floats.
        (lstsq, mapped through log, gives (0.10000000000000007,
        2.627082986193764).)"""
        series = TimeSeries("geo", 2000, np.array([
            2.5, 2.2620935450898987, 2.0468268826949543,
            1.8520455517042944, 1.6758001150890978, 1.516326649281583,
        ]))
        model = fit_gm11(series)
        assert _bits([model.alpha, model.mu]) == _bits([0.10000000000000005, 2.627082986193763])
        assert_matches_reference(series)
        assert_forecast_matches_reference(series, 2030)

    def test_near_constant_series_keeps_alpha_and_mu_to_full_precision(self):
        """Ratio 1 + 1.8e-8: a = -1.8e-8, where ln((2 + a) / (2 - a)) would lose
        the digits the ratio rounds away (2.4e-9 relative). Against the exact
        least squares of these floats, mapped at 60 digits, alpha and mu are
        off by under 1e-16 relative (measured: 2.3e-17 and 4.8e-17)."""
        values = [10.0 * (1 + 1.8e-8) ** k for k in range(6)]
        x0 = [Fraction(v) for v in values]
        x1 = list(accumulate(x0))
        u = [-(p + q) / 2 for p, q in zip(x1, x1[1:])]
        y = x0[1:]
        u_mean, y_mean = sum(u) / len(u), sum(y) / len(y)
        a = sum((p - u_mean) * (v - y_mean) for p, v in zip(u, y)) / sum(
            (p - u_mean) ** 2 for p in u
        )
        b = y_mean - a * u_mean
        with localcontext() as ctx:
            ctx.prec = 60
            a_, b_ = (Decimal(f.numerator) / Decimal(f.denominator) for f in (a, b))
            alpha = ((2 + a_) / (2 - a_)).ln()
            mu = b_ * alpha / a_
            model = fit_gm11(TimeSeries("near", 2000, np.array(values)))
            assert abs((Decimal(model.alpha) - alpha) / alpha) < Decimal("1e-16")
            assert abs((Decimal(model.mu) - mu) / mu) < Decimal("1e-16")

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
# Reference: the numpy fit with array cumsum, ratios and an lstsq solve. The
# closed-form fit must agree with it: warnings, errors and the class-ratio flag
# exactly, (alpha, mu) to the tolerances above. The one-value forecast must
# agree with the whole forecast path bit for bit, errors and warnings included.


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
        """The fit matches the numpy reference: warnings, errors and the
        class-ratio flag exactly, (alpha, mu) to the stated tolerances.
        The one-value forecast matches the full path bit for bit."""
        series = TimeSeries("s", 2000, np.array(values))
        fit, fit_warned = _outcome(lambda: fit_gm11(series))
        ref, ref_warned = _outcome(lambda: _numpy_fit_gm11(series))
        assert fit_warned == ref_warned
        if isinstance(ref, tuple):
            assert fit == ref
        else:
            got = {name: getattr(fit, name) for name in ref}
            assert_fit_close(got, ref, series.values)

        until = series.last_period + horizon
        value = _outcome(lambda: forecast_value(series, until))
        full = _outcome(lambda: forecast_series(series, until).values[-1])
        assert value == full
        if isinstance(value[0], float):
            assert _bits(value[0]) == _bits(full[0])

    @pytest.mark.parametrize("past", [False, True], ids=["at the limit", "one double past"])
    def test_exponent_at_the_limit_of_exp(self, monkeypatch, past):
        """k * -alpha at _EXP_MAX, the largest double whose exp is finite: the
        value is the full path's bit for bit. One double past it, both raise
        the same error. With warnings as errors, neither warns."""
        from hostrank import grey

        exponent = math.nextafter(grey._EXP_MAX, math.inf) if past else grey._EXP_MAX
        alpha = -exponent / 8  # exact, as k = 8 below is a power of two
        monkeypatch.setattr(grey, "fit_gm11", lambda s: grey.GreyModel(alpha, 0.0, s, True))
        series = TimeSeries("edge", 2000, np.array([1.0, 2.0, 3.0, 4.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if past:
                for call in (forecast_value, forecast_series):
                    with pytest.raises(ValidationError, match="^series 'edge' contains non-finite"):
                        call(series, 2008)
            else:
                value = forecast_value(series, 2008)
                assert math.isfinite(value)
                assert _bits(value) == _bits(forecast_series(series, 2008).values[-1])

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


class TestCurveEqualsNumpyReference:
    """predict and forecast_series evaluate the curve in Python floats; the
    numpy curve above is the reference, under its own error state."""

    @staticmethod
    def _check(series, horizon):
        from hostrank.grey import _fit_shifted

        until = series.last_period + horizon
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the class-ratio test
                model, shift = _fit_shifted(series, until)
        except (ValidationError, NumericError):
            return
        n = len(series)
        with np.errstate(over="ignore", invalid="ignore"):
            curve = _reference_curve(model.alpha, model.mu, float(model.source.values[0]),
                                     n + horizon)
            expected = np.diff(curve, prepend=0.0)
            tail = expected[n:] - shift
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "series .* fails the class-ratio test", UserWarning)
            got = predict(model, horizon)
            assert _bits(got) == _bits(expected)
            if np.isfinite(tail).all():
                out = forecast_series(series, until).values
                assert _bits(out) == _bits(np.concatenate([series.values, tail]))
            else:
                with pytest.raises(ValidationError, match="contains non-finite values$"):
                    forecast_series(series, until)
        return got

    @given(
        values=_series_values,
        # the long horizons overflow the exponential of the growing series
        horizon=st.one_of(st.integers(min_value=0, max_value=40), st.sampled_from([700, 2500])),
    )
    @settings(max_examples=300, deadline=None)
    def test_predict_and_forecast_series_match_bit_for_bit(self, values, horizon):
        self._check(TimeSeries("s", 2000, np.array(values)), horizon)

    @pytest.mark.parametrize("horizon", [0, 10, 205, 206, 207, 400])
    def test_curve_past_the_float_range_without_numpy_warnings(self, horizon):
        """From horizon 206 on the forecasts leave the float range: predict
        returns the reference's inf and nan bytes and warns nothing."""
        got = self._check(TimeSeries("boom", 2000, np.array([1.0, 30.0, 900.0, 27000.0])), horizon)
        assert np.isfinite(got).all() == (horizon < 206)


class TestGateEqualsReference:
    def test_perturbed_winter_pools_gate_as_the_reference_does(self, fixtures_dir):
        """200 seeded perturbations of the winter fixture pool, gated at the
        shipped config: every passed and ideal flag is the lstsq reference's,
        and every forecast prints as the reference's does (9 digits) unless
        the two straddle a rounding boundary. Of these 4,800 forecasts, one
        does: Stockholm's snow, 22.56951735 to within 6e-11."""
        from hostrank.dataio import load_pool, load_requirement

        winter = json.loads((fixtures_dir / "run.json").read_text())["screen"]["winter"]
        requirement, until = load_requirement(winter["requirement"]), winter["until"]
        lo, hi = requirement.ideal_temp_range
        pool = load_pool(fixtures_dir / "winter_pool.json")
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            cities = [
                CityProfile(c.name, c.country, c.gdp, c.sports_score, {
                    name: TimeSeries(s.label, s.start_period,
                                     s.values + rng.normal(0.0, 0.5 + 0.05 * abs(s.values)))
                    for name, s in c.climate.items()
                })
                for c in pool
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # some perturbed series fail the ratio test
                gated = winter_climate_filter(cities, requirement, until)
                for a, city in zip(gated, cities):
                    temp, snow = (_reference_forecast(city.climate[name], until)[0][-1]
                                  for name in ("feb_temp_c", "feb_snow_cm"))
                    passed = temp < requirement.max_feb_temp and snow >= requirement.min_feb_snow
                    assert_prints_alike(a.feb_temp, temp)
                    assert_prints_alike(a.feb_snow, snow)
                    assert (a.passed, a.ideal) == (passed, passed and lo <= temp <= hi)

    def test_class_ratio_warnings_keep_their_text_and_order(self, fixtures_dir):
        """The gate on the winter fixture pool warns once per failing series, in
        pool order, and nothing else."""
        from hostrank.dataio import load_pool

        pool = load_pool(fixtures_dir / "winter_pool.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            winter_climate_filter(pool, ClimateRequirement(), 2050)
        band = "(ratios outside (0.7515, 1.3307)); fit may extrapolate poorly"
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"series '{city}/feb_temp_c' fails the class-ratio test {band}")
            for city in ("Stockholm", "Warsaw")
        ]


def assert_prints_alike(got, ref):
    """``got`` prints as ``ref`` at 9 digits, or the two are within 1e-10 and
    a 9-digit rounding boundary (the midpoint of the printed values) lies
    between them."""
    from hostrank.reporting import format_number

    printed = format_number(got), format_number(ref)
    if printed[0] != printed[1]:
        boundary = (float(printed[0]) + float(printed[1])) / 2
        assert min(got, ref) <= boundary <= max(got, ref), (got, ref)
        assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


def _array_path(label, values):
    """The observations as np.array reads any input: the reference of the float-list path."""
    vals = np.array(values, dtype=float)
    if vals.ndim != 1:
        raise ValidationError("time series values must be 1-D")
    if not np.isfinite(vals).all():
        raise ValidationError(f"series {label!r} contains non-finite values")
    return vals


def _built(build):
    """What ``build()`` returns, or the type and text of what it raises."""
    try:
        return build()
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


_huge = st.floats(min_value=1e307, max_value=1.7e308)
_raw_values = st.one_of(
    # floats, NaN and infinities among them
    st.lists(st.floats(), max_size=12),
    # finite floats whose running sum leaves the float range
    st.lists(st.one_of(_huge, _huge.map(lambda v: -v)), min_size=2, max_size=8),
    # anything np.array converts (or refuses): ints, bools, None, strings
    st.lists(
        st.one_of(
            st.floats(), st.integers(min_value=-10**6, max_value=10**6), st.booleans(), st.none(),
            st.sampled_from(["1.5", "-2", "nan", "x"]), st.just(10**400),
        ),
        max_size=8,
    ),
    st.lists(st.floats(), max_size=8).map(np.array),
    # nested, rectangular or ragged
    st.lists(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=3),
             min_size=1, max_size=3),
)


class TestFloatListEqualsArrayPath:
    """A list of Python floats is kept as given; any other input goes through
    np.array. Both give one series: the same values, length and errors, and
    the same fit and forecast bits."""

    @given(values=_raw_values)
    @settings(max_examples=400)
    def test_values_length_and_errors_match(self, values):
        got = _built(lambda: TimeSeries("x", 2000, values))
        ref = _built(lambda: _array_path("x", values))
        if isinstance(ref, tuple):
            assert got == ref
            return
        assert got.values.dtype == ref.dtype and got.values.shape == ref.shape
        assert got.values.tobytes() == ref.tobytes()
        assert not got.values.flags.writeable
        assert len(got) == ref.size
        assert got.last_period == 2000 + ref.size - 1
        assert np.array_equal(got.periods, 2000 + np.arange(ref.size))

    @given(
        values=_series_values,
        horizon=st.one_of(st.integers(min_value=0, max_value=40), st.just(2500)),
    )
    @settings(max_examples=200, deadline=None)
    def test_fit_and_forecast_bits_match(self, values, horizon):
        kept, converted = TimeSeries("s", 2000, values), TimeSeries("s", 2000, np.array(values))
        fit = _outcome(lambda: fit_gm11(kept))
        ref = _outcome(lambda: fit_gm11(converted))
        assert fit[1] == ref[1]
        if isinstance(ref[0], tuple):
            assert fit[0] == ref[0]
        else:
            assert (_bits(fit[0].alpha), _bits(fit[0].mu), fit[0].class_ratio_ok) == (
                _bits(ref[0].alpha), _bits(ref[0].mu), ref[0].class_ratio_ok
            )
        until = kept.last_period + horizon
        value = _outcome(lambda: forecast_value(kept, until))
        ref_value = _outcome(lambda: forecast_value(converted, until))
        assert value == ref_value
        if isinstance(value[0], float):
            assert _bits(value[0]) == _bits(ref_value[0])

    def test_a_copy_shares_the_array_and_equals_its_source(self):
        series = TimeSeries("s", 2000, [1.0, 2.0, 3.0])
        twin = copy.copy(series)
        assert twin.values is series.values
        assert twin == series
        with pytest.raises(ValueError, match="ambiguous"):
            series == TimeSeries("s", 2000, [1.0, 2.0, 3.0])
