"""Reference program that measures how fast the host runs right now.

Usage: python3 perfbench/calibrate.py OUT_FILE

It does a fixed amount of the kind of work a ``hostrank`` invocation does
(interpreter start, ``import numpy``, small-matrix arithmetic, Python loops
over floats, CSV and JSON text, one file write) and never imports
``hostrank``, so a change to the program does not change its time. The runner
starts it before and after every timed invocation and divides the
invocation's wall time by the reference's, which takes out the host's drift.
"""

import csv
import io
import json
import sys

import numpy as np

TRIALS = 400
RECORDS = 2_000


def main(out: str) -> None:
    rng = np.random.default_rng(20240801)
    matrix = rng.uniform(1.0, 100.0, size=(45, 30))
    buf = io.StringIO()
    writer = csv.writer(buf)
    for trial in range(TRIALS):
        low = matrix.min(axis=0)
        scaled = (matrix - low) / (matrix.max(axis=0) - low)
        weights = scaled.sum(axis=0)
        weights /= weights.sum()
        scores = scaled @ weights
        order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
        for rank, i in enumerate(order[:10], start=1):
            writer.writerow(["trial", trial, rank, repr(float(scores[i]))])
        matrix[trial % 45] *= 1.0 + 1e-6
    records = {f"c{i}": [float(x) for x in matrix[i % 45]] for i in range(RECORDS)}
    parsed = json.loads(json.dumps(records))
    buf.write(f"{len(parsed)}\n")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


if __name__ == "__main__":
    main(sys.argv[1])
