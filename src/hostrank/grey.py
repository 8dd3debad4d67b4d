"""Grey forecasting with the single-variable first-order model.

The model accumulates the series (x1 = cumsum x0), fits the whitened
equation dx1/dt + alpha * x1 = mu, and predicts through the general
solution

    x1_hat(k+1) = (x0(1) - mu/alpha) * exp(-alpha k) + mu/alpha,

recovering original-scale forecasts by first differences. The least
squares runs on the standard midpoint background values
z(k) = (x1(k) + x1(k-1)) / 2; its raw coefficients (a, b) describe the
discrete relation x0(k) = b - a z(k). With two unknowns the fit has a
closed form, solved in Python floats on centred sums: with u = -z and
y = x0(k) for k = 1..n-1, a = sum((u - mean u)(y - mean y)) /
sum((u - mean u)^2) and b = mean y - a mean u. The sums are
math.fsum's, so no BLAS kernel or Python version moves a bit, and an SVD
least squares (np.linalg.lstsq) gives the same fit up to rounding. A
series too large for the sums to stay in the float range, or so small
that sum((u - mean u)^2) is not a normal float, counts as singular, as
lstsq's relative rank test had such series. The raw pair is then mapped
to the continuous pair

    alpha = ln((2 + a) / (2 - a)),    mu = b * alpha / a,

with alpha computed as log1p(2a / (2 - a)), so a small a keeps its digits.
This is the exact discrete-to-continuous correspondence: data that
satisfy the discrete relation without residual (any geometric series)
are reproduced and extrapolated by the exponential solution to machine
precision. As a -> 0 the mapping tends to (a, b); below 1e-12 the
exponential degenerates to linear cumulative growth and forecasts
equal mu.
"""

from __future__ import annotations

import math
import sys
import warnings
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record, frozen_array
from .errors import NumericError, ValidationError
from .indicators import _FLOATS, _brief

if TYPE_CHECKING:  # pragma: no cover
    from .selection import CityProfile

__all__ = [
    "TimeSeries",
    "GreyModel",
    "class_ratio_bounds",
    "fit_gm11",
    "forecast_series",
    "forecast_value",
    "climate_series",
    "forecast_indicator",
]

_MIN_LENGTH = 4
_ALPHA_EPS = 1e-12
_COEF_LIMIT = 2.0
# The largest double whose exp is finite; exp of the next one up overflows.
_EXP_MAX = 709.782712893384


class TimeSeries(Record):
    """A labelled, evenly spaced series starting at ``start_period``.

    The observations are kept as a tuple of Python floats, which the fit
    and the forecasts read; ``values`` is the same series as an array.

    Fitting requires at least four strictly positive observations;
    series holding raw data (e.g. sub-zero temperatures) may violate
    that and must be shifted before fitting (see
    :func:`forecast_series`).
    """

    _fields = ("label", "start_period", "values")

    def __init__(self, label: str, start_period: int, values: "np.ndarray | list") -> None:
        # A list of floats is kept as given; anything else goes through np.array
        # (ints, None, numeric strings, arrays), whose conversion is the rule.
        if type(values) is list and _FLOATS.issuperset(map(type, values)):
            x0 = tuple(values)
        else:
            vals = np.array(values, dtype=float)
            if vals.ndim != 1:
                raise ValidationError("time series values must be 1-D")
            x0 = tuple(vals.tolist())
            vals.flags.writeable = False
            self.__dict__["values"] = vals
        # A NaN or an infinity makes the sum non-finite; so, rarely, do large finite values.
        if not math.isfinite(sum(x0, 0.0)) and not all(map(math.isfinite, x0)):
            raise ValidationError(f"series {_brief(label)} contains non-finite values")
        self.__dict__.update(label=label, start_period=start_period, _x0=x0)

    @cached_property
    def values(self) -> np.ndarray:
        """The observations as a read-only float64 array, built on first use."""
        return frozen_array(self._x0)

    def __getstate__(self) -> dict:
        # A copy shares the array, so it compares equal to its source.
        return {**self.__dict__, "values": self.values}

    def __len__(self) -> int:
        return len(self._x0)

    @property
    def periods(self) -> np.ndarray:
        return self.start_period + np.arange(len(self._x0))

    @property
    def last_period(self) -> int:
        return self.start_period + len(self._x0) - 1


class GreyModel(Record):
    """Fitted grey model: developing and control coefficients of a source series.

    ``class_ratio_ok`` records the class-ratio test.
    """

    _fields = ("alpha", "mu", "source", "class_ratio_ok")


def class_ratio_bounds(n: int) -> tuple[float, float]:
    """Admissible band for the backward ratios x0(k-1)/x0(k) of an n-point series."""
    return math.exp(-2.0 / (n + 1)), math.exp(2.0 / (n + 1))


def _check_class_ratios(values: tuple[float, ...], label: str) -> bool:
    lo, hi = class_ratio_bounds(len(values))
    ratios = [a / b for a, b in zip(values, values[1:])]
    ok = min(ratios) > lo and max(ratios) < hi
    if not ok:
        warnings.warn(
            f"series {_brief(label)} fails the class-ratio test "
            f"(ratios outside ({lo:.4f}, {hi:.4f})); fit may extrapolate poorly",
            stacklevel=3,
        )
    return ok


def _curve(model: GreyModel, ks: "range | tuple[int, int]") -> list[float]:
    """x1_hat at the ascending indices ``ks``; index 0 is the first observation exactly.

    Past exp's range the curve is the inf or nan numpy's exp would give, without a warning.
    """
    alpha, mu, first = model.alpha, model.mu, model.source._x0[0]
    if abs(alpha) < _ALPHA_EPS:
        # Removable singularity: linear cumulative growth.
        out = [k * mu + first for k in ks]
    else:
        c = mu / alpha
        scale = first - c
        out = [
            (math.inf if a > _EXP_MAX else float(np.exp(a))) * scale + c
            for a in [k * -alpha for k in ks]
        ]
    if ks[0] == 0:
        out[0] = first  # anchored exactly; (first - c) + c need not round back
    return out


def fit_gm11(series: TimeSeries) -> GreyModel:
    """Fit the grey model to a positive series of length >= 4.

    A failed class-ratio test only warns; the caller decides whether a
    poorly conditioned series is acceptable. A dispersion-free series
    is handled exactly (alpha = 0, mu = the constant). Any other series
    whose cumulative sum overflows is a NumericError, raised before the
    class-ratio test.
    """
    x0 = series._x0
    n = len(x0)
    label = series.label
    if n < _MIN_LENGTH:
        raise ValidationError(
            f"series {_brief(label)} has {n} observations; need >= {_MIN_LENGTH}"
        )
    lowest = min(x0)
    if lowest <= 0:
        raise ValidationError(
            f"series {_brief(label)} has nonpositive values; shift before fitting"
        )
    constant = max(x0) == lowest
    x1 = list(accumulate(x0))
    if math.isinf(x1[-1]) and not constant:
        raise NumericError(f"cumulative sum of series {_brief(label)} overflows")
    ratio_ok = _check_class_ratios(x0, label)
    if constant:
        return GreyModel(0.0, x0[0], series, ratio_ok)

    # Least squares of y = x0(k) on u = -z(k), z(k) = (x1(k) + x1(k-1)) / 2, in
    # centred sums. No sum leaves the float range while n * x1[-1]**2 stays in
    # it; past that range, or with s_uu below the normal floats (its digits
    # lost), the equations count as singular.
    s_uu = 0.0
    if x1[-1] * x1[-1] * n < math.inf:
        u = [(p + q) * -0.5 for p, q in zip(x1, x1[1:])]
        y = x0[1:]
        u_mean = math.fsum(u) / len(u)
        y_mean = math.fsum(y) / len(y)
        du = [v - u_mean for v in u]
        s_uu = math.fsum([d * d for d in du])
    if not s_uu >= sys.float_info.min:
        raise NumericError(f"singular normal equations for series {_brief(label)}")
    a = math.fsum([d * (v - y_mean) for d, v in zip(du, y)]) / s_uu
    b = y_mean - a * u_mean
    if abs(a) >= _COEF_LIMIT:
        raise NumericError(
            f"development coefficient {a!r} outside the stable range "
            f"(-{_COEF_LIMIT}, {_COEF_LIMIT}) for series {_brief(label)}"
        )
    if abs(a) < _ALPHA_EPS:
        alpha, mu = a, b
    else:
        # ln((2 + a) / (2 - a)) as ln(1 + 2a / (2 - a)): the ratio would round a small a.
        alpha = math.log1p(2 * a / (_COEF_LIMIT - a))
        mu = b * alpha / a
    return GreyModel(alpha, mu, series, ratio_ok)


def _fit_shifted(series: TimeSeries, until: int) -> tuple[GreyModel, float]:
    """The fit behind a forecast through ``until`` and the shift it was fitted at."""
    if until < series.last_period:
        raise ValidationError(
            f"until={until} precedes the last observation of {_brief(series.label)} "
            f"({series.last_period})"
        )
    lowest = min(series._x0)
    shift = 1.0 - lowest if lowest <= 0.0 else 0.0
    if shift:
        series = TimeSeries(series.label, series.start_period, [v + shift for v in series._x0])
    return fit_gm11(series), shift


def forecast_series(series: TimeSeries, until: int) -> TimeSeries:
    """History concatenated with grey forecasts through period ``until``.

    Series containing nonpositive values (e.g. temperatures) are
    shifted by 1 - min before fitting and shifted back after, so the
    returned history is always the input verbatim.
    """
    model, shift = _fit_shifted(series, until)
    # A curve that leaves the float range fails the series' non-finite check.
    curve = _curve(model, range(len(series) - 1, until - series.start_period + 1))
    tail = [b - a - shift for a, b in zip(curve, curve[1:])]
    return TimeSeries(series.label, series.start_period, [*series._x0, *tail])


def forecast_value(series: TimeSeries, until: int) -> float:
    """``forecast_series(series, until).values[-1]``, evaluating the
    cumulative curve only at ``until`` and the period before it."""
    model, shift = _fit_shifted(series, until)
    k = until - series.start_period
    if k < len(series):
        return series._x0[k]
    before, at = _curve(model, (k - 1, k))
    value = at - before - shift
    if not math.isfinite(value):
        raise ValidationError(f"series {_brief(series.label)} contains non-finite values")
    return value


def climate_series(city: "CityProfile", indicator: str) -> TimeSeries:
    """One of a city's climate series, checked to be long enough to forecast."""
    if indicator not in city.climate:
        raise ValidationError(f"city {_brief(city.name)} has no series for {_brief(indicator)}")
    series = city.climate[indicator]
    if len(series) < _MIN_LENGTH:
        raise ValidationError(
            f"city {_brief(city.name)} has only {len(series)} observations of "
            f"{_brief(indicator)}; need >= {_MIN_LENGTH}"
        )
    return series


def forecast_indicator(city: "CityProfile", indicator: str, until: int) -> TimeSeries:
    """Forecast one of a city's climate series through ``until``."""
    return forecast_series(climate_series(city, indicator), until)
