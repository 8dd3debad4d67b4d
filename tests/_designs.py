"""Box-Behnken designs for the response-surface fit tests.

The CLI's ``rsm`` fits on a full grid; these tests use the three-level
second-order design of Box & Behnken (Technometrics 2(4), 1960) as a
small, well-conditioned set of design points.
"""

import itertools

import numpy as np

from hostrank.errors import ValidationError


def bbd_design(k: int, center_replicates: int = 3) -> np.ndarray:
    """The three-level second-order design for ``k`` factors, one point per row.

    For k >= 3 every non-center point sets exactly two factors to +-1,
    giving 4 * k(k-1)/2 points before the center replicates; k = 2 falls
    back to the full two-level factorial with centers. The array is
    read-only.
    """
    if k < 2:
        raise ValidationError("response-surface designs need at least 2 factors")
    if center_replicates < 0:
        raise ValidationError("center replicate count must be nonnegative")
    rows: list[np.ndarray] = []
    signs = ((-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0))
    if k == 2:
        for s in signs:
            rows.append(np.array(s))
    else:
        for i, j in itertools.combinations(range(k), 2):
            for si, sj in signs:
                point = np.zeros(k)
                point[i] = si
                point[j] = sj
                rows.append(point)
    rows.extend(np.zeros(k) for _ in range(center_replicates))
    points = np.vstack(rows)
    points.flags.writeable = False
    return points
