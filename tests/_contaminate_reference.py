"""Contamination of given clean rows, X = (I - B) Y + B Z.

The package generates the clean rows and their contamination together, one
row substream each (oplab.sample_contaminated).  This module applies a spec
to rows the test supplies, in the same per-row draw order (indicators, then
replacement values) on the same substreams, so that tests can check the
substream design on fixed data: that epsilon zero leaves the rows alone,
that any prefix of the rows reproduces bit for bit, and that each row equals
a fresh generator's (tests/_generation_reference.py).
"""

import numpy as np

from oplab import ContaminatedData
from oplab.rng import row_streams

from _generation_reference import _contaminate_row


def contaminate(y, spec, seed):
    n, d = y.shape
    x = np.empty_like(y)
    b = np.zeros((n, d), dtype=np.int8)
    for i, rng in enumerate(row_streams(seed, range(n))):
        x[i], b[i] = _contaminate_row(y[i], spec, rng)
    return ContaminatedData(x=x, b=b)
