"""The fitted curve of a GM(1,1) model as one array, the reference the grey tests read.

``predict`` differences the cumulative curve that ``forecast_series`` and
``forecast_value`` evaluate, from the first observation on, so a test can
compare in-sample fits and forecasts with one call.
"""

import numpy as np

from hostrank.errors import ValidationError
from hostrank.grey import GreyModel, _curve


def predict(model: GreyModel, horizon: int) -> np.ndarray:
    """In-sample fitted values plus ``horizon`` original-scale forecasts.

    Returns length n + horizon; the first entry equals the first
    observation exactly, and cumulative sums of the result reproduce
    the cumulative predictions.
    """
    if horizon < 0:
        raise ValidationError("horizon must be nonnegative")
    curve = _curve(model, range(len(model.source) + horizon))
    return np.array([b - a for a, b in zip([0.0, *curve], curve)])
