"""Grey forecasting with the single-variable first-order model.

The model accumulates the series (x1 = cumsum x0), fits the whitened
equation dx1/dt + alpha * x1 = mu, and predicts through the general
solution

    x1_hat(k+1) = (x0(1) - mu/alpha) * exp(-alpha k) + mu/alpha,

recovering original-scale forecasts by first differences. The least
squares runs on the standard midpoint background values
z(k) = (x1(k) + x1(k-1)) / 2; its raw coefficients (a, b) describe the
discrete relation x0(k) = b - a z(k) and are then mapped to the
continuous pair

    alpha = ln((2 + a) / (2 - a)),    mu = b * alpha / a,

which is the exact discrete-to-continuous correspondence: data that
satisfy the discrete relation without residual (any geometric series)
are reproduced and extrapolated by the exponential solution to machine
precision. As a -> 0 the mapping tends to (a, b); below 1e-12 the
exponential degenerates to linear cumulative growth and forecasts
equal mu.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from ._record import Record
from .errors import NumericError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .selection import CityProfile

__all__ = [
    "TimeSeries",
    "GreyModel",
    "class_ratio_bounds",
    "fit_gm11",
    "predict",
    "forecast_series",
    "forecast_value",
    "climate_series",
    "forecast_indicator",
]

_MIN_LENGTH = 4
_ALPHA_EPS = 1e-12
_COEF_LIMIT = 2.0


class TimeSeries(Record):
    """A labelled, evenly spaced series starting at ``start_period``.

    Fitting requires at least four strictly positive observations;
    series holding raw data (e.g. sub-zero temperatures) may violate
    that and must be shifted before fitting (see
    :func:`forecast_series`).
    """

    _fields = ("label", "start_period", "values")

    def __init__(self, label: str, start_period: int, values: np.ndarray) -> None:
        vals = np.array(values, dtype=float)
        if vals.ndim != 1:
            raise ValidationError("time series values must be 1-D")
        self._freeze(label, start_period, vals)

    @classmethod
    def _taking(cls, label: str, start_period: int, values: np.ndarray) -> "TimeSeries":
        """The series over ``values``, a fresh 1-D float array it takes without a copy."""
        series = object.__new__(cls)
        series._freeze(label, start_period, values)
        return series

    def _freeze(self, label: str, start_period: int, vals: np.ndarray) -> None:
        if not np.isfinite(vals).all():
            raise ValidationError(f"series {label!r} contains non-finite values")
        vals.flags.writeable = False
        self.__dict__.update(label=label, start_period=start_period, values=vals)

    def __len__(self) -> int:
        return self.values.size

    @property
    def periods(self) -> np.ndarray:
        return self.start_period + np.arange(self.values.size)

    @property
    def last_period(self) -> int:
        return self.start_period + self.values.size - 1

    def value_at(self, period: int) -> float:
        idx = period - self.start_period
        if not 0 <= idx < self.values.size:
            raise ValidationError(
                f"period {period} outside series {self.label!r} "
                f"({self.start_period}..{self.last_period})"
            )
        return float(self.values[idx])


class GreyModel(Record):
    """Fitted grey model: developing and control coefficients of a source series.

    ``midpoint_coefficients`` are the raw least-squares pair before the
    continuous mapping; ``class_ratio_ok`` records the class-ratio test.
    """

    _fields = ("alpha", "mu", "source", "midpoint_coefficients", "class_ratio_ok")

    def __init__(
        self,
        alpha: float,
        mu: float,
        source: TimeSeries,
        midpoint_coefficients: tuple[float, float],
        class_ratio_ok: bool,
    ) -> None:
        self.__dict__.update(
            alpha=alpha, mu=mu, source=source,
            midpoint_coefficients=midpoint_coefficients, class_ratio_ok=class_ratio_ok,
        )


def _differences(cumulative: np.ndarray) -> np.ndarray:
    """First entry, then first differences: the original-scale values."""
    out = np.empty_like(cumulative)
    out[0] = cumulative[0]
    np.subtract(cumulative[1:], cumulative[:-1], out=out[1:])
    return out


def class_ratio_bounds(n: int) -> tuple[float, float]:
    """Admissible band for the backward ratios x0(k-1)/x0(k) of an n-point series."""
    return math.exp(-2.0 / (n + 1)), math.exp(2.0 / (n + 1))


def _check_class_ratios(values: list[float], label: str) -> bool:
    lo, hi = class_ratio_bounds(len(values))
    ratios = [a / b for a, b in zip(values, values[1:])]
    ok = min(ratios) > lo and max(ratios) < hi
    if not ok:
        warnings.warn(
            f"series {label!r} fails the class-ratio test "
            f"(ratios outside ({lo:.4f}, {hi:.4f})); fit may extrapolate poorly",
            stacklevel=3,
        )
    return ok


def _cumulative_curve(model: GreyModel, k: "np.ndarray | tuple[int, int]") -> np.ndarray:
    """x1_hat at the ascending indices ``k``; index 0 is the first observation exactly."""
    alpha, mu, first = model.alpha, model.mu, float(model.source.values[0])
    out = np.array(k, dtype=float)
    if abs(alpha) < _ALPHA_EPS:
        # Removable singularity: linear cumulative growth.
        out *= mu
        out += first
    else:
        c = mu / alpha
        out *= -alpha
        np.exp(out, out=out)
        out *= first - c
        out += c
    if k[0] == 0:
        out[0] = first  # anchored exactly; (first - c) + c need not round back
    return out


def fit_gm11(series: TimeSeries) -> GreyModel:
    """Fit the grey model to a positive series of length >= 4.

    A failed class-ratio test only warns; the caller decides whether a
    poorly conditioned series is acceptable. A dispersion-free series
    is handled exactly (alpha = 0, mu = the constant).
    """
    x0 = series.values.tolist()
    n = len(x0)
    if n < _MIN_LENGTH:
        raise ValidationError(
            f"series {series.label!r} has {n} observations; need >= {_MIN_LENGTH}"
        )
    lowest = min(x0)
    if lowest <= 0:
        raise ValidationError(
            f"series {series.label!r} has nonpositive values; shift before fitting"
        )
    ratio_ok = _check_class_ratios(x0, series.label)

    if max(x0) == lowest:
        return GreyModel(
            alpha=0.0, mu=x0[0], source=series,
            midpoint_coefficients=(0.0, x0[0]), class_ratio_ok=ratio_ok,
        )

    # Design rows (-z(k), 1) with midpoint background z(k) = (x1(k) + x1(k-1)) / 2.
    x1 = list(accumulate(x0))
    design = np.array([((x1[k] + x1[k - 1]) * -0.5, 1.0) for k in range(1, n)])
    coef, _, rank, _ = np.linalg.lstsq(design, series.values[1:], rcond=None)
    if rank < 2:
        raise NumericError(f"singular normal equations for series {series.label!r}")
    a, b = float(coef[0]), float(coef[1])
    if abs(a) >= _COEF_LIMIT:
        raise NumericError(
            f"development coefficient {a!r} outside the stable range "
            f"(-{_COEF_LIMIT}, {_COEF_LIMIT}) for series {series.label!r}"
        )
    if abs(a) < _ALPHA_EPS:
        alpha, mu = a, b
    else:
        alpha = math.log((_COEF_LIMIT + a) / (_COEF_LIMIT - a))
        mu = b * alpha / a
    return GreyModel(
        alpha=alpha, mu=mu, source=series,
        midpoint_coefficients=(a, b), class_ratio_ok=ratio_ok,
    )


def predict(model: GreyModel, horizon: int) -> np.ndarray:
    """In-sample fitted values plus ``horizon`` original-scale forecasts.

    Returns length n + horizon; the first entry equals the first
    observation exactly, and cumulative sums of the result reproduce
    the cumulative predictions.
    """
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    return _differences(_cumulative_curve(model, np.arange(len(model.source) + horizon)))


def _fit_shifted(series: TimeSeries, until: int) -> tuple[GreyModel, float]:
    """The fit behind a forecast through ``until`` and the shift it was fitted at."""
    if until < series.last_period:
        raise ValidationError(
            f"until={until} precedes the last observation of {series.label!r} "
            f"({series.last_period})"
        )
    lowest = min(series.values.tolist())
    shift = 1.0 - lowest if lowest <= 0.0 else 0.0
    if shift:
        series = TimeSeries._taking(series.label, series.start_period, series.values + shift)
    return fit_gm11(series), shift


def forecast_series(series: TimeSeries, until: int) -> TimeSeries:
    """History concatenated with grey forecasts through period ``until``.

    Series containing nonpositive values (e.g. temperatures) are
    shifted by 1 - min before fitting and shifted back after, so the
    returned history is always the input verbatim.
    """
    model, shift = _fit_shifted(series, until)
    tail = predict(model, until - series.last_period)[len(series):]
    tail -= shift
    return TimeSeries._taking(
        series.label, series.start_period, np.concatenate([series.values, tail])
    )


def forecast_value(series: TimeSeries, until: int) -> float:
    """``forecast_series(series, until).value_at(until)``, evaluating the
    cumulative curve only at ``until`` and the period before it."""
    model, shift = _fit_shifted(series, until)
    k = until - series.start_period
    if k < len(series):
        return float(series.values[k])
    # exp overflows past 709.78; if it can by k - 1, only the whole curve warns as predict does.
    points = (k - 1, k) if model.alpha * (k - 1) > -700.0 else np.arange(k + 1)
    x1 = _cumulative_curve(model, points)
    value = float((x1[1:] - x1[:-1])[-1]) - shift
    if not math.isfinite(value):
        raise ValidationError(f"series {series.label!r} contains non-finite values")
    return value


def climate_series(city: "CityProfile", indicator: str) -> TimeSeries:
    """One of a city's climate series, checked to be long enough to forecast."""
    if indicator not in city.climate:
        raise ValidationError(f"city {city.name!r} has no series for {indicator!r}")
    series = city.climate[indicator]
    if len(series) < _MIN_LENGTH:
        raise ValidationError(
            f"city {city.name!r} has only {len(series)} observations of "
            f"{indicator!r}; need >= {_MIN_LENGTH}"
        )
    return series


def forecast_indicator(city: "CityProfile", indicator: str, until: int) -> TimeSeries:
    """Forecast one of a city's climate series through ``until``."""
    return forecast_series(climate_series(city, indicator), until)
